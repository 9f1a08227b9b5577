"""Bit identity of the motion model's edge-crossing walk and dwell exits.

``GraphMotionModel.step`` walks its edge crossers hop-major, in array
passes over ``CompiledGraph.crossings``, with one counter-based ``WALK``
uniform per row and hop, and moves every room leaver of the stack in one
pass. The reference below is the per-particle step: one ``_exit_room``
per leaver, one ``_walk`` per crosser reading its own uniforms row by row,
and one ``_choose_next_edge`` per junction masking the node's adjacency
array. Every array must match it, and every block of a stack must match
the same block stepped alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CompiledGraph, GraphMotionModel, ParticleSet
from repro.core.motion import _MAX_HOPS
from repro.floorplan import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.graph import build_walking_graph
from repro.rng import CounterDraws, Draw, object_words

PLANS = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}


@lru_cache(maxsize=None)
def compiled_plan(name: str) -> CompiledGraph:
    return CompiledGraph(build_walking_graph(PLANS[name]()))


def draws_for(seed: int, blocks: int, size: int, second: int = 7) -> CounterDraws:
    """Draws of ``blocks`` objects at one second."""
    objects = object_words(seed, [f"obj-{block}" for block in range(blocks)])
    return CounterDraws.at(objects, np.full(blocks, second), size)


def uniform(draws: CounterDraws, purpose: Draw, row: int, hop: int = 0) -> float:
    """One row's uniform, drawn alone."""
    return float(draws.uniforms(purpose, np.array([row]), hop)[0])


# ----------------------------------------------------------------------
# reference: the per-particle walk
# ----------------------------------------------------------------------
def reference_step(
    model: GraphMotionModel, particles: ParticleSet, draws: CounterDraws, dt: float
) -> None:
    compiled = model.compiled
    for row in np.nonzero(particles.dwelling)[0].tolist():
        if uniform(draws, Draw.EXIT, row) < model.room_exit_probability:
            _reference_exit_room(model, particles, row, draws)
    moving = ~particles.dwelling
    distance = particles.speed * dt
    tentative = particles.offset + particles.direction * distance
    lengths = compiled.edge_length[particles.edge]
    stays = moving & (tentative >= 0.0) & (tentative <= lengths)
    particles.offset[stays] = tentative[stays]
    for row in np.nonzero(moving & ~stays)[0]:
        _reference_walk(model, particles, int(row), float(distance[row]), draws)


def _reference_exit_room(model, particles, row, draws):
    compiled = model.compiled
    edge_id = int(particles.edge[row])
    if compiled.node_is_room[compiled.edge_node_b[edge_id]]:
        particles.offset[row] = compiled.edge_length[edge_id]
        particles.direction[row] = -1
    else:
        particles.offset[row] = 0.0
        particles.direction[row] = 1
    radius = uniform(draws, Draw.SPEED_RADIUS, row, hop=1)
    angle = uniform(draws, Draw.SPEED_ANGLE, row, hop=1)
    normal = np.sqrt(-2.0 * np.log1p(-radius)) * np.cos(2.0 * np.pi * angle)
    particles.speed[row] = max(model.speed_mean + model.speed_std * normal, model.min_speed)
    particles.dwelling[row] = False


def _reference_walk(model, particles, row, distance, draws):
    compiled = model.compiled
    edge = int(particles.edge[row])
    offset = float(particles.offset[row])
    direction = int(particles.direction[row])
    remaining = distance
    for hop in range(_MAX_HOPS):
        length = compiled.edge_length[edge]
        space = (length - offset) if direction > 0 else offset
        if remaining <= space + 1e-12:
            offset += direction * remaining
            offset = min(max(offset, 0.0), length)
            break
        remaining -= space
        node = int(
            compiled.edge_node_b[edge] if direction > 0 else compiled.edge_node_a[edge]
        )
        offset = length if direction > 0 else 0.0
        if compiled.node_is_room[node]:
            particles.dwelling[row] = True
            break
        edge = _reference_choose_next_edge(model, node, edge, uniform(draws, Draw.WALK, row, hop))
        if compiled.edge_node_a[edge] == node:
            offset = 0.0
            direction = 1
        else:
            offset = compiled.edge_length[edge]
            direction = -1
    particles.edge[row] = edge
    particles.offset[row] = offset
    particles.direction[row] = direction


def _reference_choose_next_edge(model, node, arrival_edge, u):
    """One uniform picks the pool (door with the door probability) and the entry.

    ``u`` below the door probability takes the door pool, and ``u``'s
    place in its pool's share of [0, 1), stretched over the pool, picks
    the entry.
    """
    compiled = model.compiled
    candidates = compiled.adjacency[node]
    if len(candidates) > 1:
        candidates = candidates[candidates != arrival_edge]
    if len(candidates) == 1:
        return int(candidates[0])
    door_mask = compiled.edge_is_door[candidates]
    doors = list(candidates[door_mask])
    hallways = list(candidates[~door_mask])
    p = model.door_entry_probability
    if doors and hallways:
        if u < p:
            column = min(u * (len(doors) / p), len(doors) - 1)
        else:
            column = min(
                (u - p) * (len(hallways) / (1.0 - p)) + len(doors),
                len(doors) + len(hallways) - 1,
            )
    else:
        column = min(u * len(doors or hallways), len(doors or hallways) - 1)
    return int((doors + hallways)[int(column)])


# ----------------------------------------------------------------------
# particle sets
# ----------------------------------------------------------------------
#: Speed bands: ordinary walking, multi-hop sprints, and speeds that spend
#: the whole ``_MAX_HOPS`` cap.
SPEEDS = {"walk": (0.05, 2.5), "multi_hop": (5.0, 80.0), "capped": (1e4, 1e5)}


@st.composite
def particle_sets(draw):
    name = draw(st.sampled_from(sorted(PLANS)))
    compiled = compiled_plan(name)
    n = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**32 - 1))
    band = draw(st.sampled_from(sorted(SPEEDS)))
    dwell_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(seed)
    particles = ParticleSet.empty(n)
    particles.edge[:] = rng.integers(0, compiled.num_edges, size=n)
    length = compiled.edge_length[particles.edge]
    # Offsets at either end of the edge as well as inside it.
    where = rng.integers(0, 3, size=n)
    particles.offset[:] = np.select([where == 0, where == 1], [0.0, length], rng.random(n) * length)
    particles.direction[:] = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    lo, hi = SPEEDS[band]
    particles.speed[:] = rng.uniform(lo, hi, size=n)
    # Dwelling particles sit at the room end of a door spur.
    door_edges = np.nonzero(compiled.edge_is_door)[0]
    dwell = rng.random(n) < dwell_share
    for row in np.nonzero(dwell)[0]:
        edge = int(rng.choice(door_edges))
        particles.edge[row] = edge
        room_at_b = compiled.node_is_room[compiled.edge_node_b[edge]]
        particles.offset[row] = compiled.edge_length[edge] if room_at_b else 0.0
        particles.dwelling[row] = True
    model = GraphMotionModel(
        compiled,
        room_exit_probability=draw(st.sampled_from([0.0, 0.1, 1.0])),
        door_entry_probability=draw(st.sampled_from([0.0, 0.2, 1.0])),
    )
    return model, particles, seed


def assert_same(a: ParticleSet, b: ParticleSet) -> None:
    for name in ("edge", "offset", "direction", "speed", "dwelling", "weight"):
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        # Bytes, not values: -0.0 and NaN payloads must match too.
        assert left.tobytes() == right.tobytes(), name


class TestWalkBitIdentity:
    @settings(max_examples=200, deadline=None)
    @given(case=particle_sets(), steps=st.integers(1, 4), dt=st.sampled_from([1.0, 0.5, 3.0]))
    def test_step_matches_reference(self, case, steps, dt):
        model, particles, seed = case
        expected = particles.copy()
        for second in range(steps):
            draws = draws_for(seed, 1, len(particles), second)
            model.step(particles, draws, dt=dt)
            reference_step(model, expected, draws, dt)
            assert_same(particles, expected)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_capped_walk_spends_max_hops(self, name):
        # A speed no hallway can absorb and no door to turn into: every
        # particle walks until the cap stops it.
        compiled = compiled_plan(name)
        model = GraphMotionModel(compiled, door_entry_probability=0.0)
        hallways = np.nonzero(~compiled.edge_is_door)[0]
        particles = ParticleSet.empty(32)
        particles.edge[:] = hallways[np.arange(32) % len(hallways)]
        particles.offset[:] = compiled.edge_length[particles.edge] / 2
        particles.speed[:] = 1e6
        expected = particles.copy()
        draws = draws_for(5, 1, 32)
        model.step(particles, draws)
        reference_step(model, expected, draws, 1.0)
        assert_same(particles, expected)
        assert not particles.dwelling.any()

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANS)),
        blocks=st.integers(1, 6),
        size=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        exit_probability=st.sampled_from([0.5, 0.9, 1.0]),
    )
    def test_dwell_exits_in_stacked_blocks(self, name, blocks, size, seed, exit_probability):
        # Most rows dwell and most dwellers leave, so blocks have several
        # leavers each; every block must match a reference step of its own.
        compiled = compiled_plan(name)
        model = GraphMotionModel(compiled, room_exit_probability=exit_probability)
        rng = np.random.default_rng(seed)
        door_edges = np.nonzero(compiled.edge_is_door)[0]
        stack = ParticleSet.empty(blocks * size)
        stack.edge[:] = rng.choice(door_edges, size=len(stack))
        room_at_b = compiled.node_is_room[compiled.edge_node_b[stack.edge]]
        stack.offset[:] = np.where(room_at_b, compiled.edge_length[stack.edge], 0.0)
        stack.direction[:] = np.where(rng.random(len(stack)) < 0.5, 1, -1).astype(np.int8)
        stack.speed[:] = rng.uniform(0.5, 1.5, size=len(stack))
        stack.dwelling[:] = rng.random(len(stack)) < 0.8
        expected = [stack[block * size:(block + 1) * size].copy() for block in range(blocks)]
        draws = draws_for(seed, blocks, size)
        model.step(stack, draws)
        for block, want in enumerate(expected):
            reference_step(model, want, draws.take([block]), 1.0)
            assert_same(stack[block * size:(block + 1) * size], want)

    def test_every_dweller_leaves_with_one_speed_draw(self):
        # All 40 rows leave at once: one pass must give the speeds that
        # 40 one-row draws give, in row order.
        compiled = compiled_plan("paper")
        model = GraphMotionModel(compiled, room_exit_probability=1.0)
        door_edges = np.nonzero(compiled.edge_is_door)[0]
        particles = ParticleSet.empty(40)
        particles.edge[:] = door_edges[np.arange(40) % len(door_edges)]
        room_at_b = compiled.node_is_room[compiled.edge_node_b[particles.edge]]
        particles.offset[:] = np.where(room_at_b, compiled.edge_length[particles.edge], 0.0)
        particles.dwelling[:] = True
        expected = particles.copy()
        draws = draws_for(11, 1, 40)
        model.step(particles, draws, dt=1e-9)
        reference_step(model, expected, draws, 1e-9)
        assert_same(particles, expected)
        assert not particles.dwelling.any()
        assert len(set(particles.speed.tolist())) == 40

    def test_multi_way_pools_still_draw(self):
        # The paper plan has junctions offering two hallways: their pool
        # of two must take an entry by the draw, and a forced entry none.
        compiled = compiled_plan("paper")
        crossings = compiled.crossings
        pools = [
            key for key in range(len(crossings.far))
            if max(len(crossings.doors[key]), len(crossings.hallways[key])) >= 2
        ]
        assert pools
        model = GraphMotionModel(compiled, door_entry_probability=0.0)
        key = next(k for k in pools if not crossings.doors[k])
        edge, forward = divmod(key, 2)
        particles = ParticleSet.empty(256)
        particles.edge[:] = edge
        particles.direction[:] = 1 if forward else -1
        length = compiled.edge_length[edge]
        particles.offset[:] = length - 0.01 if forward else 0.01
        particles.speed[:] = 0.02
        model.step(particles, draws_for(3, 1, 256))
        taken = {(int(e), int(d)) for e, d in zip(particles.edge, particles.direction)}
        assert {(k >> 1, 1 if k & 1 else -1) for k, _ in crossings.hallways[key]} == taken


def random_stack(compiled, blocks, size, seed, band):
    """``blocks * size`` walking rows anywhere on the plan, none dwelling."""
    rng = np.random.default_rng(seed)
    n = blocks * size
    stack = ParticleSet.empty(n)
    stack.edge[:] = rng.integers(0, compiled.num_edges, size=n)
    length = compiled.edge_length[stack.edge]
    where = rng.integers(0, 3, size=n)
    stack.offset[:] = np.select([where == 0, where == 1], [0.0, length], rng.random(n) * length)
    stack.direction[:] = np.where(rng.random(n) < 0.5, 1, -1).astype(np.int8)
    lo, hi = SPEEDS[band]
    stack.speed[:] = rng.uniform(lo, hi, size=n)
    return stack


def assert_stack_matches_reference(model, stack, blocks, seed, steps=1, dt=1.0):
    """Step ``stack`` and each block alone; every block must agree."""
    size = len(stack) // blocks
    expected = [stack[block * size:(block + 1) * size].copy() for block in range(blocks)]
    for second in range(steps):
        draws = draws_for(seed, blocks, size, second)
        model.step(stack, draws, dt=dt)
        for block, want in enumerate(expected):
            reference_step(model, want, draws.take([block]), dt)
            assert_same(stack[block * size:(block + 1) * size], want)


class TestStackWalk:
    """The array walk over a lockstep stack, against per-block reference steps."""

    @settings(max_examples=80, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANS)),
        blocks=st.integers(8, 40),
        size=st.integers(16, 64),
        seed=st.integers(0, 2**32 - 1),
        band=st.sampled_from(sorted(SPEEDS)),
        door_probability=st.sampled_from([0.0, 0.2, 1.0]),
        steps=st.integers(1, 3),
    )
    def test_stack_matches_reference(self, name, blocks, size, seed, band, door_probability, steps):
        compiled = compiled_plan(name)
        model = GraphMotionModel(compiled, door_entry_probability=door_probability)
        stack = random_stack(compiled, blocks, size, seed, band)
        assert_stack_matches_reference(model, stack, blocks, seed, steps=steps)

    @pytest.mark.parametrize("crossers", [63, 64])
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_at_the_threshold(self, name, crossers):
        # Exactly ``crossers`` rows leave their edge, around the count
        # from which an earlier walk switched from scalar to array passes;
        # one hop-major walk now serves every count.
        compiled = compiled_plan(name)
        model = GraphMotionModel(compiled)
        blocks, size = 4, 32
        stack = random_stack(compiled, blocks, size, 97, "walk")
        length = compiled.edge_length[stack.edge]
        crossing = np.zeros(len(stack), dtype=bool)
        crossing[np.random.default_rng(3).choice(len(stack), crossers, replace=False)] = True
        # Crossers start at their far node; the rest at mid-edge with a
        # speed their edge absorbs.
        stack.offset[:] = np.where(
            crossing, np.where(stack.direction > 0, length, 0.0), length / 2
        )
        stack.speed[:] = np.where(crossing, stack.speed, length / 4)
        assert_stack_matches_reference(model, stack, blocks, 5)

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_overshoot_within_tolerance_stops(self, name):
        # Rows whose step overshoots the far node by under 1e-12 m leave
        # their edge by the move test but stop by the walk's ``+ 1e-12``
        # test, clamped to the node.
        compiled = compiled_plan(name)
        model = GraphMotionModel(compiled)
        blocks, size = 4, 32
        stack = random_stack(compiled, blocks, size, 41, "walk")
        length = compiled.edge_length[stack.edge]
        slack = np.where(np.arange(len(stack)) % 2 == 0, 4e-13, 0.0)
        space = stack.speed - slack
        stack.offset[:] = np.where(stack.direction > 0, length - space, space)
        stack.speed[:] = np.where(space > length, length / 4, stack.speed)
        assert_stack_matches_reference(model, stack, blocks, 9)

    def test_stack_path_draws_coins_in_runs(self):
        # Many walking rows on the paper plan, with junctions offering one
        # door and one hallway: every block must match its reference over
        # five steps, and about half the coin crossers take the door.
        compiled = compiled_plan("paper")
        crossings = compiled.crossings
        coins = [
            key for key in range(len(crossings.far))
            if len(crossings.doors[key]) == len(crossings.hallways[key]) == 1
        ]
        assert coins
        model = GraphMotionModel(compiled, door_entry_probability=0.5)
        stack = random_stack(compiled, 20, 64, 123, "walk")
        assert_stack_matches_reference(model, stack, 20, 123, steps=5)

    def test_stack_order_does_not_change_draws(self):
        # A block draws by its object's key, not its place in the stack:
        # stepping the blocks in reverse order gives the same blocks.
        compiled = compiled_plan("cross")
        model = GraphMotionModel(compiled)
        blocks, size = 10, 32
        stack = random_stack(compiled, blocks, size, 8, "walk")
        order = list(reversed(range(blocks)))
        rows = (np.array(order)[:, None] * size + np.arange(size)).reshape(-1)
        reversed_stack = stack[rows]
        draws = draws_for(4, blocks, size)
        model.step(stack, draws)
        model.step(reversed_stack, draws.take(order))
        assert_same(stack[rows], reversed_stack)


class TestJunctionTable:
    """``CompiledGraph.crossings`` against the junction law, from adjacency."""

    @staticmethod
    def _entry(compiled, edge, node):
        if compiled.edge_node_a[edge] == node:
            return 2 * edge + 1, 0.0
        return 2 * edge, float(compiled.edge_length[edge])

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_entries_match_adjacency(self, name):
        compiled = compiled_plan(name)
        crossings = compiled.crossings
        for key in range(2 * compiled.num_edges):
            edge, forward = divmod(key, 2)
            node = int(compiled.edge_node_b[edge] if forward else compiled.edge_node_a[edge])
            if compiled.node_is_room[node]:
                assert crossings.forced[key] is None
                assert crossings.doors[key] == crossings.hallways[key] == []
                continue
            rest = [int(e) for e in compiled.adjacency[node] if e != edge]
            if not rest:  # dead end: turn back
                rest = [edge]
            entries = [self._entry(compiled, e, node) for e in rest]
            if len(rest) == 1:
                assert crossings.forced[key] == entries[0]
                assert crossings.doors[key] == crossings.hallways[key] == []
            else:
                door = [bool(compiled.edge_is_door[e]) for e in rest]
                assert crossings.forced[key] is None
                assert crossings.doors[key] == [x for x, d in zip(entries, door) if d]
                assert crossings.hallways[key] == [x for x, d in zip(entries, door) if not d]

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_crossings_lay_out_the_junctions(self, name):
        compiled = compiled_plan(name)
        crossings = compiled.crossings
        assert len(crossings.far) == 2 * compiled.num_edges
        for edge in range(compiled.num_edges):
            length = float(compiled.edge_length[edge])
            for forward in (False, True):
                key = 2 * edge + forward
                node = int(compiled.edge_node_b[edge] if forward else compiled.edge_node_a[edge])
                assert crossings.far[key] == (length if forward else 0.0)
                assert crossings.sign[key] == (1 if forward else -1)
                assert crossings.length[key] == length
                assert crossings.room[key] == bool(compiled.node_is_room[node])

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_arrays_follow_the_lists(self, name):
        compiled = compiled_plan(name)
        c = compiled.crossings
        assert c.far_array.tolist() == c.far
        assert c.sign_array.tolist() == c.sign
        assert c.length_array.tolist() == c.length
        assert c.room_array.tolist() == c.room
        for key in range(len(c.far)):
            doors, hallways = c.doors[key], c.hallways[key]
            if c.forced[key] is not None:
                pool, door_count = [c.forced[key]], 0
            else:
                pool, door_count = doors + hallways, len(doors)
            assert c.door_count[key] == door_count
            assert c.hallway_count[key] == len(pool) - door_count
            row = c.pools[key].tolist()
            assert row == [k for k, _ in pool] + [0] * (len(row) - len(pool))
            # An entry's offset is the far end of the opposite heading.
            assert [c.far[k ^ 1] for k, _ in pool] == [offset for _, offset in pool]

    def test_paper_plan_size(self):
        # One heading per edge end: 68 edges.
        crossings = compiled_plan("paper").crossings
        for table in (
            crossings.far, crossings.sign, crossings.length, crossings.room,
            crossings.forced, crossings.doors, crossings.hallways,
        ):
            assert len(table) == 136


class TestSingleChoiceDraw:
    """A draw is a pure function of its indices, and a pool of one takes none."""

    @pytest.mark.parametrize("buffered", [False, True])
    def test_random_k_equals_k_scalar_draws(self, buffered):
        # One call over k rows yields the values of k one-row calls, in
        # any order and whatever was drawn before (``buffered``: another
        # purpose and hop drawn first).
        draws = draws_for(77, 3, 9)
        if buffered:
            draws.uniforms(Draw.EXIT, np.arange(27), hop=5)
        rows = np.array([20, 2, 11, 3, 26, 9, 0, 14, 8])
        scalar = [uniform(draws, Draw.WALK, int(row), hop=1) for row in rows]
        assert draws.uniforms(Draw.WALK, rows, hop=1).tolist() == scalar
        whole = draws.uniforms(Draw.WALK, hop=1)
        assert whole[rows].tolist() == scalar

    @pytest.mark.parametrize("buffered", [False, True])
    def test_integers_one_leaves_state_unchanged(self, buffered):
        # A forced entry (a hallway pool of one) is taken whatever the
        # row's uniform: rows one draw apart still take the same entry.
        compiled = compiled_plan("paper")
        crossings = compiled.crossings
        forced = [key for key in range(len(crossings.far)) if crossings.forced[key] is not None]
        assert forced
        model = GraphMotionModel(compiled, door_entry_probability=0.5 if buffered else 0.0)
        key = forced[0]
        edge, forward = divmod(key, 2)
        particles = ParticleSet.empty(64)
        particles.edge[:] = edge
        particles.direction[:] = 1 if forward else -1
        particles.offset[:] = compiled.edge_length[edge] - 0.01 if forward else 0.01
        particles.speed[:] = 0.02
        model.step(particles, draws_for(5, 1, 64))
        entry_key, _ = crossings.forced[key]
        assert (particles.edge == entry_key >> 1).all()
