"""Tests for the particle set, compiled graph, and graph motion model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rng import Draw
from repro.core import CompiledAnchors, CompiledGraph, GraphMotionModel, ParticleSet
from repro.floorplan.presets import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.geometry import Circle, Point
from repro.graph import build_walking_graph
from tests.streams import draws_for, seed_cloud


@pytest.fixture(scope="module")
def small_compiled(small_graph):
    return CompiledGraph(small_graph)


@pytest.fixture(scope="module")
def paper_compiled(paper_graph):
    return CompiledGraph(paper_graph)


class TestParticleSet:
    def test_empty_allocation(self):
        ps = ParticleSet.empty(8)
        assert len(ps) == 8
        assert ps.weight.sum() == pytest.approx(1.0)

    def test_field_length_mismatch_rejected(self):
        ps = ParticleSet.empty(4)
        with pytest.raises(ValueError):
            ParticleSet(
                edge=ps.edge,
                offset=ps.offset[:2],
                direction=ps.direction,
                speed=ps.speed,
                dwelling=ps.dwelling,
                weight=ps.weight,
            )

    def test_copy_is_deep(self):
        ps = ParticleSet.empty(4)
        clone = ps.copy()
        clone.offset[0] = 99.0
        assert ps.offset[0] == 0.0

    def test_take_in_place_uniform_weights(self):
        ps = ParticleSet.empty(4)
        ps.offset[:] = [0.0, 1.0, 2.0, 3.0]
        ps.weight[:] = [0.1, 0.2, 0.3, 0.4]
        offset = ps.offset
        ps.take(np.array([3, 3, 1, 0]))
        assert ps.offset is offset
        assert list(ps.offset) == [3.0, 3.0, 1.0, 0.0]
        assert np.allclose(ps.weight, 0.25)

    def test_take_needs_one_index_per_particle(self):
        with pytest.raises(ValueError, match="one index per particle"):
            ParticleSet.empty(4).take(np.array([0]))

    def test_normalize_weights(self):
        ps = ParticleSet.empty(4)
        ps.weight[:] = [1.0, 1.0, 2.0, 0.0]
        ps.normalize_weights()
        assert ps.weight.sum() == pytest.approx(1.0)
        assert ps.weight[2] == pytest.approx(0.5)

    def test_normalize_zero_weights_falls_back_to_uniform(self):
        ps = ParticleSet.empty(4)
        ps.weight[:] = 0.0
        ps.normalize_weights()
        assert np.allclose(ps.weight, 0.25)


def walk_points(compiled, edge, offset):
    """The leg-by-leg walk ``CompiledGraph.points`` replaced (reference)."""
    leg = compiled.leg_ptr[edge].copy()
    last = compiled.leg_ptr[edge + 1] - 1
    while True:
        beyond = (leg < last) & (
            offset > compiled.leg_cum[leg] + compiled.leg_len[leg] + 1e-12
        )
        if not beyond.any():
            break
        leg[beyond] += 1
    local = np.clip(offset - compiled.leg_cum[leg], 0.0, compiled.leg_len[leg])
    x = compiled.leg_sx[leg] + compiled.leg_ux[leg] * local
    y = compiled.leg_sy[leg] + compiled.leg_uy[leg] * local
    return x, y


@pytest.fixture(scope="module")
def preset_compiled():
    return {
        name: CompiledGraph(build_walking_graph(make()))
        for name, make in (
            ("paper", paper_office_plan),
            ("small", small_test_plan),
            ("linear", linear_office_plan),
            ("cross", cross_office_plan),
        )
    }


def _tricky_offsets(compiled, edge):
    """Offsets at and around an edge's leg joints and ends, and past them."""
    legs = range(compiled.leg_ptr[edge], compiled.leg_ptr[edge + 1])
    joints = [float(compiled.leg_cum[leg] + compiled.leg_len[leg]) for leg in legs]
    length = float(compiled.edge_length[edge])
    exact = [0.0, -0.0, length, *joints]
    near = [v + d for v in exact for d in (-1e-12, 1e-12)]
    nudged = [float(np.nextafter(v + 1e-12, s)) for v in exact for s in (-np.inf, np.inf)]
    return st.one_of(
        st.sampled_from(exact + near + nudged),
        st.floats(min_value=-5.0, max_value=length + 5.0),
        st.floats(allow_nan=False, allow_infinity=True, width=64),
    )


class TestClosedFormPoints:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_points_equal_the_leg_walk_bit_for_bit(self, data, preset_compiled):
        compiled = preset_compiled[data.draw(st.sampled_from(sorted(preset_compiled)))]
        edges = data.draw(
            st.lists(st.integers(0, compiled.num_edges - 1), min_size=1, max_size=40)
        )
        offsets = [data.draw(_tricky_offsets(compiled, edge)) for edge in edges]
        edge = np.array(edges, dtype=np.int64)
        offset = np.array(offsets, dtype=np.float64)
        got = compiled.points(edge, offset)
        want = walk_points(compiled, edge, offset)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_every_preset_has_multi_leg_edges(self, preset_compiled):
        for compiled in preset_compiled.values():
            assert (np.diff(compiled.leg_ptr) > 1).any()


class TestCompiledGraph:
    def test_rejects_sparse_edge_ids(self, small_graph):
        # CompiledGraph assumes dense ids; the builder provides them.
        compiled = CompiledGraph(small_graph)
        assert compiled.num_edges == len(small_graph.edges)

    def test_points_match_edge_point_at(self, paper_compiled, paper_graph):
        rng = np.random.default_rng(0)
        edges = rng.integers(0, paper_compiled.num_edges, size=200)
        offsets = rng.random(200) * paper_compiled.edge_length[edges]
        xs, ys = paper_compiled.points(edges, offsets)
        for e, off, x, y in zip(edges, offsets, xs, ys):
            expected = paper_graph.edge(int(e)).point_at(float(off))
            assert expected.is_close(Point(float(x), float(y)), tol=1e-6)

    def test_points_on_door_edges_cross_legs(self, paper_compiled, paper_graph):
        door = paper_graph.door_edge("R20")
        offsets = np.linspace(0, door.length, 15)
        edges = np.full(15, door.edge_id, dtype=np.int64)
        xs, ys = paper_compiled.points(edges, offsets)
        for off, x, y in zip(offsets, xs, ys):
            expected = door.point_at(float(off))
            assert expected.is_close(Point(float(x), float(y)), tol=1e-6)

    def test_node_indexing(self, paper_compiled, paper_graph):
        for node in paper_graph.nodes[:10]:
            idx = paper_compiled.node_index[node.node_id]
            assert paper_compiled.node_x[idx] == pytest.approx(node.point.x)
            assert paper_compiled.node_is_room[idx] == node.is_room


class TestCompiledAnchors:
    def test_nearest_matches_index(self, paper_compiled, paper_anchors):
        compiled = CompiledAnchors(paper_anchors, paper_compiled)
        rng = np.random.default_rng(1)
        edges = rng.integers(0, paper_compiled.num_edges, 50)
        offsets = rng.uniform(0.0, 1.0, 50) * paper_compiled.edge_length[edges]
        xs, ys = paper_compiled.points(edges, offsets)
        fast = compiled.nearest(edges, offsets)
        for x, y, ap_id in zip(xs, ys, fast):
            expected = paper_anchors.nearest(Point(x, y))
            got = paper_anchors.anchor(int(ap_id))
            assert got.point.distance_to(Point(x, y)) == pytest.approx(
                expected.point.distance_to(Point(x, y)), abs=1e-9
            )


class TestMotionModel:
    def _model(self, compiled, **kwargs):
        return GraphMotionModel(compiled, **kwargs)

    def test_initialize_within_circle(self, small_compiled, rng):
        model = self._model(small_compiled)
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 64, circle, 12345)
        xs, ys = small_compiled.points(ps.edge, ps.offset)
        for x, y in zip(xs, ys):
            assert circle.contains(Point(x, y)) or circle.center.distance_to(
                Point(x, y)
            ) <= circle.radius + 0.2  # jitter slack

    def test_initialize_off_graph_collapses_to_nearest(self, small_compiled, rng):
        model = self._model(small_compiled)
        circle = Circle(Point(100, 100), 0.5)
        ps = seed_cloud(model, 16, circle, 12345)
        assert len(np.unique(ps.edge)) == 1

    def test_speeds_positive_and_near_mean(self, small_compiled, rng):
        model = self._model(small_compiled)
        speeds = model.draw_speeds(draws_for(1, 1, 2000))
        assert (speeds > 0).all()
        assert abs(speeds.mean() - 1.0) < 0.02
        assert abs(speeds.std() - 0.1) < 0.02

    def test_step_keeps_particles_on_graph(self, paper_compiled, rng):
        model = self._model(paper_compiled)
        circle = Circle(Point(20, 5), 2.0)
        ps = seed_cloud(model, 128, circle, 12345)
        for second in range(30):
            model.step(ps, draws_for(1, 1, len(ps), second))
            lengths = paper_compiled.edge_length[ps.edge]
            assert (ps.offset >= -1e-9).all()
            assert (ps.offset <= lengths + 1e-9).all()
            assert np.isin(ps.direction, [-1, 1]).all()

    def test_step_distance_bounded_by_speed(self, small_compiled, rng):
        model = self._model(small_compiled, room_exit_probability=0.0)
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 64, circle, 12345)
        x0, y0 = small_compiled.points(ps.edge, ps.offset)
        model.step(ps, draws_for(1, 1, len(ps)), dt=1.0)
        x1, y1 = small_compiled.points(ps.edge, ps.offset)
        moved = np.hypot(x1 - x0, y1 - y0)
        # Straight-line displacement can never exceed the walked distance.
        assert (moved <= ps.speed + 1e-6).all()

    def test_particles_eventually_enter_and_dwell_in_rooms(self, small_compiled, rng):
        model = self._model(small_compiled, door_entry_probability=0.5)
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 64, circle, 12345)
        for second in range(40):
            model.step(ps, draws_for(1, 1, len(ps), second))
        assert ps.dwelling.any()

    def test_no_door_entry_means_no_dwelling(self, small_compiled, rng):
        model = self._model(small_compiled, door_entry_probability=0.0)
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 64, circle, 12345)
        for second in range(40):
            model.step(ps, draws_for(1, 1, len(ps), second))
        assert not ps.dwelling.any()

    def test_room_exit_zero_traps_dwellers(self, small_compiled, rng):
        model = self._model(
            small_compiled, door_entry_probability=1.0, room_exit_probability=0.0
        )
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 64, circle, 12345)
        for second in range(60):
            model.step(ps, draws_for(1, 1, len(ps), second))
        assert ps.dwelling.all()

    def test_room_exit_one_releases_quickly(self, small_compiled, rng):
        model = self._model(
            small_compiled, door_entry_probability=0.0, room_exit_probability=1.0
        )
        circle = Circle(Point(10, 5), 2.0)
        ps = seed_cloud(model, 32, circle, 12345)
        ps.dwelling[:] = True
        # Park everyone on a door edge at its room end.
        door = small_compiled.graph.door_edge("R1")
        ps.edge[:] = door.edge_id
        ps.offset[:] = door.length
        model.step(ps, draws_for(1, 1, len(ps)))
        assert not ps.dwelling.any()

    def test_dead_end_reverses(self, small_compiled, rng):
        # Small plan's hallway endpoints are dead ends (degree 1).
        model = self._model(small_compiled, door_entry_probability=0.0)
        ps = ParticleSet.empty(1)
        # Hallway edge touching x=0 endpoint; send the particle left.
        graph = small_compiled.graph
        loc, _ = graph.locate(Point(0.5, 5))
        ps.edge[:] = loc.edge_id
        ps.offset[:] = loc.offset
        edge = graph.edge(loc.edge_id)
        left_is_a = edge.path.start.x < edge.path.end.x
        ps.direction[:] = -1 if left_is_a else 1
        ps.speed[:] = 1.0
        model.step(ps, draws_for(1, 1, len(ps)))
        x, _ = small_compiled.points(ps.edge, ps.offset)
        assert x[0] >= 0.0
        # After bouncing, the particle heads back into the hallway.
        model.step(ps, draws_for(1, 1, len(ps)))
        x2, _ = small_compiled.points(ps.edge, ps.offset)
        assert x2[0] > x[0] - 1e-9

    def test_rejects_bad_parameters(self, small_compiled):
        with pytest.raises(ValueError):
            GraphMotionModel(small_compiled, speed_mean=0.0)
        with pytest.raises(ValueError):
            GraphMotionModel(small_compiled, room_exit_probability=1.5)
        with pytest.raises(ValueError):
            GraphMotionModel(small_compiled, door_entry_probability=-0.1)


def _reference_scan(model, circle):
    """The full seed scan: every edge, every 0.25 m step, no pruning."""
    candidates = []
    for edge in model.compiled.graph.edges:
        steps = max(int(edge.length / 0.25), 1)
        for i in range(steps + 1):
            offset = min(i * 0.25, edge.length)
            if circle.contains(edge.point_at(offset)):
                candidates.append((edge.edge_id, offset))
    return candidates


def _reference_initialize(model, candidates, n, circle, seed):
    """Particle seeding as a per-row loop over ``(edge, offset)`` tuples."""
    draws = draws_for(seed, 1, n)

    def row_uniform(purpose, row):
        return float(draws.uniforms(purpose, np.array([row]))[0])

    particles = ParticleSet.empty(n)
    if candidates:
        for row in range(n):
            pick = min(int(row_uniform(Draw.INIT_PICK, row) * len(candidates)), len(candidates) - 1)
            jitter = (row_uniform(Draw.INIT_JITTER, row) - 0.5) * 0.25
            edge_id, offset = candidates[pick]
            length = model.compiled.edge_length[edge_id]
            particles.edge[row] = edge_id
            particles.offset[row] = min(max(offset + jitter, 0.0), length)
    else:
        loc, _ = model.compiled.graph.locate(circle.center)
        particles.edge[:] = loc.edge_id
        particles.offset[:] = loc.offset
    for row in range(n):
        particles.direction[row] = 1 if row_uniform(Draw.INIT_DIRECTION, row) < 0.5 else -1
        particles.speed[row] = model.draw_speeds(draws, np.array([row]))[0]
    particles.dwelling[:] = False
    particles.weight[:] = 1.0 / max(n, 1)
    return particles


def _assert_same_bytes(got, expected):
    for field in ("edge", "offset", "direction", "speed", "dwelling", "weight"):
        a, b = getattr(got, field), getattr(expected, field)
        assert a.dtype == b.dtype, field
        assert a.tobytes() == b.tobytes(), field


class TestSeedSets:
    """Memoized seed sets seed exactly what the full per-call scan did."""

    @pytest.mark.parametrize("seed", [0, 7, 31])
    @pytest.mark.parametrize("n", [1, 64, 128])
    def test_initialize_matches_reference_on_every_reader(
        self, paper_compiled, paper_readers, seed, n
    ):
        model = GraphMotionModel(paper_compiled)
        for reader in paper_readers:
            circle = reader.detection_circle
            candidates = _reference_scan(model, circle)
            assert candidates, reader.reader_id
            got = seed_cloud(model, n, circle, seed)
            expected = _reference_initialize(model, candidates, n, circle, seed)
            _assert_same_bytes(got, expected)

    def test_off_graph_fallback_matches_reference(self, paper_compiled):
        model = GraphMotionModel(paper_compiled)
        circle = Circle(Point(200.0, -50.0), 1.0)
        assert _reference_scan(model, circle) == []
        got = seed_cloud(model, 32, circle, 5)
        expected = _reference_initialize(model, [], 32, circle, 5)
        _assert_same_bytes(got, expected)

    def test_second_call_reuses_read_only_arrays(self, paper_compiled):
        model = GraphMotionModel(paper_compiled)
        circle = Circle(Point(20.0, 5.0), 2.0)
        edges, offsets = model.positions_in_circle(circle)
        assert edges.dtype == np.int64 and offsets.dtype == np.float64
        # A rescan would build new arrays; the memo hands back the same ones.
        again = model.positions_in_circle(Circle(Point(20.0, 5.0), 2.0))
        assert again[0] is edges and again[1] is offsets
        seed_cloud(model, 8, circle, 0)
        for array in (edges, offsets):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_memo_starts_empty(self, paper_compiled):
        assert GraphMotionModel(paper_compiled)._seed_sets == {}

    @settings(max_examples=150, deadline=None)
    @given(
        x=st.floats(0.0, 64.0),
        y=st.floats(-2.0, 34.0),
        radius=st.floats(0.0, 3.0),
        node=st.integers(0, 10_000),
        on_node=st.booleans(),
    )
    def test_pruned_scan_equals_full_scan(
        self, paper_compiled, x, y, radius, node, on_node
    ):
        model = GraphMotionModel(paper_compiled)
        nodes = paper_compiled.graph.nodes
        center = nodes[node % len(nodes)].point if on_node else Point(x, y)
        circle = Circle(center, radius)
        edges, offsets = model.positions_in_circle(circle)
        assert list(zip(edges.tolist(), offsets.tolist())) == _reference_scan(
            model, circle
        )
