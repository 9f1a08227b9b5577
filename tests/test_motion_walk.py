"""Bit identity of the motion model's edge-crossing walk and dwell exits.

``GraphMotionModel.step`` walks its edge crossers in plain Python over
``CompiledGraph.crossings``, a per-heading layout of
``CompiledGraph.junctions``, and moves a block's room leavers with one
speed draw per block. The reference below is the earlier per-particle
step, kept verbatim in spirit: one ``_exit_room`` per leaver drawing a
size-1 speed, one ``_walk`` per crosser reading numpy scalars, and one
``_choose_next_edge`` per junction masking the node's adjacency array.
Every array and the final generator state must match it.
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

PLANS = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}


@lru_cache(maxsize=None)
def compiled_plan(name: str) -> CompiledGraph:
    return CompiledGraph(build_walking_graph(PLANS[name]()))


# ----------------------------------------------------------------------
# reference: the per-particle walk the junction table replaced
# ----------------------------------------------------------------------
def reference_step(
    model: GraphMotionModel, particles: ParticleSet, rng: np.random.Generator, dt: float
) -> None:
    compiled = model.compiled
    dwelling_rows = np.nonzero(particles.dwelling)[0]
    if len(dwelling_rows):
        exits = dwelling_rows[rng.random(len(dwelling_rows)) < model.room_exit_probability]
        for row in exits:
            _reference_exit_room(model, particles, int(row), rng)
    moving = ~particles.dwelling
    distance = particles.speed * dt
    tentative = particles.offset + particles.direction * distance
    lengths = compiled.edge_length[particles.edge]
    stays = moving & (tentative >= 0.0) & (tentative <= lengths)
    particles.offset[stays] = tentative[stays]
    for row in np.nonzero(moving & ~stays)[0]:
        _reference_walk(model, particles, int(row), float(distance[row]), rng)


def _reference_exit_room(model, particles, row, rng):
    compiled = model.compiled
    edge_id = int(particles.edge[row])
    if compiled.node_is_room[compiled.edge_node_b[edge_id]]:
        particles.offset[row] = compiled.edge_length[edge_id]
        particles.direction[row] = -1
    else:
        particles.offset[row] = 0.0
        particles.direction[row] = 1
    particles.speed[row] = np.maximum(
        rng.normal(model.speed_mean, model.speed_std, size=1), model.min_speed
    )[0]
    particles.dwelling[row] = False


def _reference_walk(model, particles, row, distance, rng):
    compiled = model.compiled
    edge = int(particles.edge[row])
    offset = float(particles.offset[row])
    direction = int(particles.direction[row])
    remaining = distance
    for _ in range(_MAX_HOPS):
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
        edge = _reference_choose_next_edge(model, node, edge, rng)
        if compiled.edge_node_a[edge] == node:
            offset = 0.0
            direction = 1
        else:
            offset = compiled.edge_length[edge]
            direction = -1
    particles.edge[row] = edge
    particles.offset[row] = offset
    particles.direction[row] = direction


def _reference_choose_next_edge(model, node, arrival_edge, rng):
    compiled = model.compiled
    candidates = compiled.adjacency[node]
    if len(candidates) > 1:
        candidates = candidates[candidates != arrival_edge]
    if len(candidates) == 1:
        return int(candidates[0])
    door_mask = compiled.edge_is_door[candidates]
    doors = candidates[door_mask]
    hallways = candidates[~door_mask]
    if len(doors) and len(hallways):
        pool = doors if rng.random() < model.door_entry_probability else hallways
    elif len(doors):
        pool = doors
    else:
        pool = hallways
    return int(pool[rng.integers(len(pool))])


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
        rng_new = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        for _ in range(steps):
            model.step(particles, [rng_new], dt=dt)
            reference_step(model, expected, rng_ref, dt)
            assert_same(particles, expected)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

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
        model.step(particles, [np.random.default_rng(5)])
        reference_step(model, expected, np.random.default_rng(5), 1.0)
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
        rngs = [np.random.default_rng([seed, block]) for block in range(blocks)]
        ref_rngs = [np.random.default_rng([seed, block]) for block in range(blocks)]
        model.step(stack, rngs)
        for block, (want, ref_rng) in enumerate(zip(expected, ref_rngs)):
            reference_step(model, want, ref_rng, 1.0)
            assert_same(stack[block * size:(block + 1) * size], want)
        assert [r.bit_generator.state for r in rngs] == [
            r.bit_generator.state for r in ref_rngs
        ]

    def test_every_dweller_leaves_with_one_speed_draw(self):
        # All 40 rows leave at once: one normal(size=40) call must give the
        # speeds that 40 size-1 calls give, in row order.
        compiled = compiled_plan("paper")
        model = GraphMotionModel(compiled, room_exit_probability=1.0)
        door_edges = np.nonzero(compiled.edge_is_door)[0]
        particles = ParticleSet.empty(40)
        particles.edge[:] = door_edges[np.arange(40) % len(door_edges)]
        room_at_b = compiled.node_is_room[compiled.edge_node_b[particles.edge]]
        particles.offset[:] = np.where(room_at_b, compiled.edge_length[particles.edge], 0.0)
        particles.dwelling[:] = True
        expected = particles.copy()
        rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        model.step(particles, [rng], dt=1e-9)
        reference_step(model, expected, ref_rng, 1e-9)
        assert_same(particles, expected)
        assert not particles.dwelling.any()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_multi_way_pools_still_draw(self):
        # The paper plan has junctions offering two hallways: their pool
        # of two must keep drawing from the generator.
        pools = [
            entry for entry in compiled_plan("paper").junctions.values()
            if not isinstance(entry, int) and max(len(entry[0]), len(entry[1])) >= 2
        ]
        assert pools


class TestJunctionTable:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_entries_match_adjacency(self, name):
        compiled = compiled_plan(name)
        expected_keys = {
            (node, int(edge))
            for node in range(compiled.num_nodes)
            for edge in compiled.adjacency[node]
        }
        assert set(compiled.junctions) == expected_keys
        for (node, arrival), entry in compiled.junctions.items():
            rest = [int(e) for e in compiled.adjacency[node] if e != arrival]
            if not rest:  # dead end: turn back
                rest = [arrival]
            if isinstance(entry, int):
                assert rest == [entry]
            else:
                doors, hallways = entry
                assert doors == [e for e in rest if compiled.edge_is_door[e]]
                assert hallways == [e for e in rest if not compiled.edge_is_door[e]]

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_crossings_lay_out_the_junctions(self, name):
        compiled = compiled_plan(name)
        crossings = compiled.crossings

        def entry(edge, node):
            if compiled.edge_node_a[edge] == node:
                return 2 * edge + 1, 0.0
            return 2 * edge, float(compiled.edge_length[edge])

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
                if compiled.node_is_room[node]:
                    assert crossings.forced[key] is None
                    assert crossings.doors[key] == crossings.hallways[key] == []
                    continue
                choice = compiled.junctions[node, edge]
                if isinstance(choice, int):
                    assert crossings.forced[key] == entry(choice, node)
                    assert crossings.doors[key] == crossings.hallways[key] == []
                else:
                    assert crossings.forced[key] is None
                    assert crossings.doors[key] == [entry(e, node) for e in choice[0]]
                    assert crossings.hallways[key] == [entry(e, node) for e in choice[1]]

    def test_paper_plan_size(self):
        # One entry per edge end: 68 edges.
        assert len(compiled_plan("paper").junctions) == 136


class TestSingleChoiceDraw:
    """The walk takes a one-edge pool without ``rng.integers(1)``."""

    @pytest.mark.parametrize("buffered", [False, True])
    def test_integers_one_leaves_state_unchanged(self, buffered):
        rng = np.random.default_rng(2024)
        if buffered:
            # A 32-bit draw leaves half a 64-bit word buffered.
            rng.integers(0, 1000, dtype=np.int32)
            assert rng.bit_generator.state["has_uint32"] == 1
        before = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == before
