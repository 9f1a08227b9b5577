"""Compiled query plans answer exactly what a from-scratch evaluation does.

Range (Algorithm 3) and kNN (Algorithm 4) evaluation is a geometric plan
plus a table pass. These tests pin both halves to a test-local copy of
the single-loop evaluators the plans replaced: the same values, bit for
bit, and the same dict key order, on every floor plan, for any table —
also when one plan answers many tables in a row, as a standing query's
does. The lifecycle tests pin when plans are built and dropped.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import DEFAULT_CONFIG
from repro.floorplan import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
from repro.geometry import Point, Rect
from repro.graph import build_anchor_index, build_walking_graph
from repro.index import AnchorObjectTable
from repro.queries import (
    KNNPlan,
    KNNQuery,
    RangePlan,
    RangeQuery,
    evaluate_knn_query,
    evaluate_range_query,
)
from repro.queries.engine import TableQueryEngine
from repro.service import (
    LiveSimSource,
    ReplaySource,
    TrackingService,
    restore_service,
)
from repro.service.sessions import SessionManager
from repro.sim import Simulation

PLANS = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.fixture(scope="module")
def worlds():
    out = {}
    for name, factory in PLANS.items():
        plan = factory()
        graph = build_walking_graph(plan)
        out[name] = (plan, graph, build_anchor_index(graph, spacing=1.0))
    return out


# ----------------------------------------------------------------------
# the single-loop evaluators the plans replaced (reference copies)
# ----------------------------------------------------------------------
def _reference_range(query, plan, anchor_index, table):
    probabilities = {}

    def merge(partial, ratio):
        for obj, p in {o: q * ratio for o, q in partial.items()}.items():
            probabilities[obj] = probabilities.get(obj, 0.0) + p

    for hallway in plan.hallways:
        band = hallway.band
        overlap = band.intersection(query.window)
        if overlap is None or overlap.area <= 1e-12:
            continue
        half = anchor_index.spacing / 2.0
        if hallway.centerline.is_horizontal:
            ratio = overlap.height / hallway.width
            lo, hi = overlap.min_x, overlap.max_x
            axis_lo, axis_hi = band.min_x, band.max_x
            span = Rect(lo - half, band.min_y, hi + half, band.max_y)
            axis = "x"
        else:
            ratio = overlap.width / hallway.width
            lo, hi = overlap.min_y, overlap.max_y
            axis_lo, axis_hi = band.min_y, band.max_y
            span = Rect(band.min_x, lo - half, band.max_x, hi + half)
            axis = "y"
        partial = {}
        for ap in anchor_index.in_rect(span):
            if ap.hallway_id != hallway.hallway_id:
                continue
            coord = getattr(ap.point, axis)
            cell_lo = max(coord - half, axis_lo)
            cell_hi = min(coord + half, axis_hi)
            if cell_hi - cell_lo <= 0.0:
                continue
            covered = min(cell_hi, hi) - max(cell_lo, lo)
            fraction = min(max(covered / (cell_hi - cell_lo), 0.0), 1.0)
            if fraction <= 0.0:
                continue
            for obj, p in table.items_at(ap.ap_id):
                partial[obj] = partial.get(obj, 0.0) + p * fraction
        merge(partial, ratio)

    for room in plan.rooms:
        overlap = room.boundary.overlap_area(query.window)
        if overlap <= 1e-12:
            continue
        partial = {}
        for ap in anchor_index.in_room(room.room_id):
            for obj, p in table.items_at(ap.ap_id):
                partial[obj] = partial.get(obj, 0.0) + p
        merge(partial, overlap / room.area)
    return probabilities


def _reference_knn(query, graph, anchor_index, table, distance=None):
    """Algorithm 4 as one loop; also returns the anchors it visited.

    Anchors are visited in ``(distance, ap_id)`` order, with each
    distance computed on its own by ``distance(q_loc, anchor)``
    (``graph.distance`` to the anchor's location by default); anchors at
    an infinite distance are unreachable and never visited.
    """
    q_loc, _ = graph.locate(query.point)
    if distance is None:
        def distance(loc, ap):
            return graph.distance(loc, ap.location)
    ranked = sorted(
        (distance(q_loc, ap), ap.ap_id) for ap in anchor_index.anchors
    )
    probabilities, visited = {}, []
    total = 0.0
    for gap, ap_id in ranked:
        if not math.isfinite(gap):
            break
        visited.append(ap_id)
        for obj, p in table.items_at(ap_id):
            probabilities[obj] = probabilities.get(obj, 0.0) + p
            total += p
        if total >= query.k:
            break
    return probabilities, visited


def _items(result):
    return list(result.probabilities.items())


def _random_table(anchor_index, seed, objects=None):
    rng = np.random.default_rng(seed)
    ap_ids = [ap.ap_id for ap in anchor_index.anchors]
    count = int(rng.integers(0, 8)) if objects is None else objects
    pairs = []
    for n in range(count):
        size = int(rng.integers(1, min(12, len(ap_ids)) + 1))
        chosen = rng.choice(ap_ids, size=size, replace=False)
        masses = rng.random(size)
        masses /= masses.sum()
        pairs.append(
            (f"o{n}", {int(ap): float(m) for ap, m in zip(chosen, masses)})
        )
    return AnchorObjectTable.from_distributions(pairs)


def _point_in(bounds, fx, fy):
    return Point(
        bounds.min_x + fx * (bounds.max_x - bounds.min_x),
        bounds.min_y + fy * (bounds.max_y - bounds.min_y),
    )


unit = st.floats(min_value=-0.05, max_value=1.05, allow_nan=False)


# ----------------------------------------------------------------------
# properties: plan + table pass == the single loop
# ----------------------------------------------------------------------
class TestPlansMatchTheSingleLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANS)),
        corners=st.tuples(unit, unit, unit, unit),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
    )
    def test_range(self, worlds, name, corners, seeds):
        plan, _, anchor_index = worlds[name]
        a = _point_in(plan.bounds, corners[0], corners[1])
        b = _point_in(plan.bounds, corners[2], corners[3])
        window = Rect(min(a.x, b.x), min(a.y, b.y), max(a.x, b.x), max(a.y, b.y))
        query = RangeQuery("r", window)
        compiled = RangePlan.build(query, plan, anchor_index)
        for seed in seeds:
            table = _random_table(anchor_index, seed)
            expected = list(_reference_range(query, plan, anchor_index, table).items())
            assert _items(compiled.answer(table)) == expected
            assert _items(
                evaluate_range_query(query, plan, anchor_index, table)
            ) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANS)),
        where=st.tuples(unit, unit),
        k=st.integers(1, 9),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4),
    )
    def test_knn(self, worlds, name, where, k, seeds):
        plan, graph, anchor_index = worlds[name]
        query = KNNQuery("k", _point_in(plan.bounds, *where), k)
        compiled = KNNPlan.build(query, graph, anchor_index)
        for seed in seeds:
            table = _random_table(anchor_index, seed)
            expected, visited = _reference_knn(query, graph, anchor_index, table)
            assert _items(compiled.answer(table)) == list(expected.items())
            assert _items(
                evaluate_knn_query(query, graph, anchor_index, table)
            ) == list(expected.items())
            # The plan's order starts with the anchors the loop visited.
            assert compiled.order[:len(visited)] == visited

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(PLANS)),
        where=st.tuples(unit, unit),
        k=st.integers(1, 9),
        seed=st.integers(0, 2**31),
        cut=st.sets(st.integers(0, 10_000), max_size=40),
    )
    def test_unreachable_anchors_are_never_visited(
        self, worlds, name, where, k, seed, cut
    ):
        plan, graph, anchor_index = worlds[name]
        query = KNNQuery("k", _point_in(plan.bounds, *where), k)
        unreachable = {ap_id % len(anchor_index) for ap_id in cut}
        location, _ = graph.locate(query.point)
        distances = anchor_index.network_distances(location)
        distances[sorted(unreachable)] = math.inf
        compiled = KNNPlan(query, location, distances)
        assert not compiled.distances.flags.writeable
        assert unreachable.isdisjoint(compiled.order)
        assert len(compiled.order) == len(anchor_index) - len(unreachable)

        def distance(loc, ap):
            if ap.ap_id in unreachable:
                return math.inf
            return graph.distance(loc, ap.location)

        table = _random_table(anchor_index, seed, objects=12)
        expected, visited = _reference_knn(
            query, graph, anchor_index, table, distance
        )
        assert unreachable.isdisjoint(visited)
        assert _items(compiled.answer(table)) == list(expected.items())


# ----------------------------------------------------------------------
# edge cases
# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_window_overlapping_nothing(self, worlds):
        plan, _, anchor_index = worlds["paper"]
        bounds = plan.bounds
        window = Rect(bounds.max_x + 1, bounds.max_y + 1, bounds.max_x + 5, bounds.max_y + 5)
        query = RangeQuery("r", window)
        compiled = RangePlan.build(query, plan, anchor_index)
        assert compiled.parts == []
        table = _random_table(anchor_index, 3, objects=5)
        assert compiled.answer(table).probabilities == {}

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_windows_touching_hallway_ends(self, worlds, name):
        plan, _, anchor_index = worlds[name]
        table = _random_table(anchor_index, 5, objects=6)
        for hallway in plan.hallways:
            band = hallway.band
            windows = [
                band,
                Rect(band.min_x, band.min_y, band.min_x + 1.5, band.max_y),
                Rect(band.max_x - 1.5, band.min_y, band.max_x, band.max_y),
                Rect(band.min_x, band.min_y, band.max_x, band.min_y + 1.5),
                Rect(band.min_x, band.max_y - 1.5, band.max_x, band.max_y),
                # Touching from outside: zero overlap area.
                Rect(band.max_x, band.min_y, band.max_x + 2.0, band.max_y),
            ]
            for window in windows:
                query = RangeQuery("r", window)
                expected = list(_reference_range(query, plan, anchor_index, table).items())
                got = evaluate_range_query(query, plan, anchor_index, table)
                assert _items(got) == expected

    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_points_on_nodes_and_leg_vertices(self, worlds, name):
        plan, graph, anchor_index = worlds[name]
        table = _random_table(anchor_index, 7, objects=6)
        points = [node.point for node in graph.nodes]
        for edge in graph.edges:
            points.extend(edge.path.points)
        for k in (1, 3):
            for point in points:
                query = KNNQuery("k", point, k)
                expected, _ = _reference_knn(query, graph, anchor_index, table)
                got = evaluate_knn_query(query, graph, anchor_index, table)
                assert _items(got) == list(expected.items())

    def test_k_larger_than_total_mass(self, worlds):
        plan, graph, anchor_index = worlds["cross"]
        table = _random_table(anchor_index, 11, objects=3)
        query = KNNQuery("k", Point(1.0, 1.0), 50)
        compiled = KNNPlan.build(query, graph, anchor_index)
        expected, visited = _reference_knn(query, graph, anchor_index, table)
        result = compiled.answer(table)
        assert _items(result) == list(expected.items())
        assert sorted(result.probabilities) == sorted(table.objects())
        # The total never reached k: every anchor is reachable, and the
        # loop and the plan both visited all of them in one order.
        assert compiled.order == visited
        assert len(visited) == len(anchor_index)
        assert _items(compiled.answer(table)) == list(expected.items())

    def test_empty_table(self, worlds):
        plan, graph, anchor_index = worlds["small"]
        table = AnchorObjectTable()
        knn = KNNQuery("k", Point(5.0, 5.0), 2)
        assert evaluate_knn_query(knn, graph, anchor_index, table).probabilities == {}
        window = RangeQuery("r", plan.bounds)
        assert evaluate_range_query(window, plan, anchor_index, table).probabilities == {}


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
def _engine(worlds, name="small"):
    plan, graph, anchor_index = worlds[name]
    return TableQueryEngine(plan, graph, anchor_index)


class TestLifecycle:
    def test_no_plan_before_the_first_evaluation(self, worlds):
        engine = _engine(worlds)
        engine.register_range_query(RangeQuery("r", Rect(0, 0, 12, 12)))
        engine.register_knn_query(KNNQuery("k", Point(5, 5), 2))
        assert engine._plans == {}
        engine.table = _random_table(engine.anchor_index, 1, objects=4)
        engine.evaluate(0)
        assert isinstance(engine._plans["r"], RangePlan)
        assert isinstance(engine._plans["k"], KNNPlan)

    def test_plans_are_reused_across_rounds(self, worlds):
        engine = _engine(worlds)
        engine.register_range_query(RangeQuery("r", Rect(0, 0, 12, 12)))
        engine.register_knn_query(KNNQuery("k", Point(5, 5), 2))
        engine.evaluate(0)
        first = dict(engine._plans)
        for second in range(1, 4):
            engine.table = _random_table(engine.anchor_index, second, objects=4)
            snapshot = engine.evaluate(second)
            assert engine._plans == first
            assert _items(snapshot.range_results["r"]) == list(
                _reference_range(
                    RangeQuery("r", Rect(0, 0, 12, 12)), engine.plan,
                    engine.anchor_index, engine.table,
                ).items()
            )

    def test_a_new_query_under_a_kept_id_gets_its_own_plan(self, worlds):
        engine = _engine(worlds)
        engine.table = _random_table(engine.anchor_index, 2, objects=6)
        engine.register_range_query(RangeQuery("q", Rect(0, 0, 6, 12)))
        engine.evaluate(0)
        # Registered again without unregistering, and as a kNN query too.
        window = Rect(8, 0, 20, 12)
        engine.register_range_query(RangeQuery("q", window))
        engine.register_knn_query(KNNQuery("q", Point(5, 5), 2))
        snapshot = engine.evaluate(1)
        assert _items(snapshot.range_results["q"]) == list(
            _reference_range(
                RangeQuery("q", window), engine.plan, engine.anchor_index, engine.table
            ).items()
        )
        expected, _ = _reference_knn(
            KNNQuery("q", Point(5, 5), 2), engine.graph, engine.anchor_index, engine.table
        )
        assert _items(snapshot.knn_results["q"]) == list(expected.items())

    def test_unregister_and_clear_drop_plans(self, worlds):
        engine = _engine(worlds)
        engine.register_range_query(RangeQuery("r", Rect(0, 0, 12, 12)))
        engine.register_knn_query(KNNQuery("k", Point(5, 5), 2))
        engine.evaluate(0)
        assert engine.unregister_query("r")
        assert set(engine._plans) == {"k"}
        engine.clear_queries()
        assert engine._plans == {}

    def test_one_off_queries_leave_no_plan_behind(self, worlds):
        engine = _engine(worlds)
        engine.register_range_query(RangeQuery("r", Rect(0, 0, 12, 12)))
        engine.evaluate(0)
        kept = dict(engine._plans)
        snapshot = engine._evaluate_alone(
            engine.evaluate, 0, [], [KNNQuery("adhoc", Point(5, 5), 1)]
        )
        assert list(snapshot.knn_results) == ["adhoc"]
        assert engine._plans == kept

    def test_resubscribing_an_id_with_a_new_window_rebuilds(self, worlds):
        plan, graph, anchor_index = worlds["small"]
        table = _random_table(anchor_index, 9, objects=5)
        sessions = SessionManager(plan, graph, anchor_index)
        sessions.subscribe_range(Rect(0, 0, 6, 12), session_id="r")
        sessions.publish(0, table)
        sessions.unsubscribe("r")
        assert sessions.engine._plans == {}
        window = Rect(8, 0, 20, 12)
        sessions.subscribe_range(window, session_id="r")
        sessions.publish(1, table)
        assert sessions.engine._plans["r"].query.window == window
        expected = {
            obj: p
            for obj, p in _reference_range(
                RangeQuery("r", window), plan, anchor_index, table
            ).items()
            if p >= sessions.monitor.report_threshold
        }
        assert sessions.current_result("r") == expected

    def test_restore_rebuilds_plans(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=11)
        sim = Simulation(config, build_symbolic=False)
        readings = []
        for _ in range(12):
            readings.extend(sim.step())

        def fresh():
            service = TrackingService(config)
            service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
            service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
            return service

        def run(service, **window):
            deltas = []
            for batch in ReplaySource(readings, **window).batches():
                deltas.extend(
                    (d.query_id, d.second, d.entered, d.left, d.updated)
                    for d in service.process_batch(batch)
                )
            return deltas

        uninterrupted = fresh()
        full = run(uninterrupted)
        cut = fresh()
        run(cut, max_seconds=6)
        resumed = restore_service(cut.state_dict())
        assert resumed.sessions.engine._plans == {}
        tail = run(resumed, start_after=6)
        assert tail == [d for d in full if d[1] > 6]
        assert set(resumed.sessions.engine._plans) == {"r0", "k0"}


class TestGatewayPartitions:
    def test_answers_identical_at_one_two_and_three_partitions(self):
        specs = demo_tenants(2, base_seed=17, num_objects=5, plan="small")
        batches = {}
        for spec in specs:
            world = TenantWorld(spec)
            sim = Simulation(
                world.config, plan=world.plan, readers=world.readers,
                build_symbolic=False,
            )
            batches[spec.tenant_id] = list(LiveSimSource(sim, 6).batches())

        outcomes = []
        for partitions in (1, 2, 3):
            coordinator = GatewayCoordinator(
                specs, num_partitions=partitions, transport="inline"
            )
            with coordinator:
                for spec in specs:
                    coordinator.subscribe_range(
                        spec.tenant_id, Rect(0, 0, 12, 12), session_id="r0"
                    )
                    coordinator.subscribe_knn(
                        spec.tenant_id, Point(5, 5), 2, session_id="k0"
                    )
                deltas = []
                for step in range(6):
                    for tenant_id, tenant_batches in batches.items():
                        coordinator.submit_tick(tenant_id, tenant_batches[step])
                    for _ in batches:
                        _, _, tick = coordinator.collect_tick()
                        deltas.extend(
                            (d.query_id, d.second, d.entered, d.left, d.updated)
                            for d in tick
                        )
                answers = [
                    (
                        coordinator.session_result(spec.tenant_id, "r0"),
                        coordinator.session_result(spec.tenant_id, "k0"),
                        coordinator.query_range(
                            spec.tenant_id, Rect(0, 0, 12, 12)
                        ).probabilities,
                        coordinator.query_knn(spec.tenant_id, Point(5, 5), 2).probabilities,
                    )
                    for spec in specs
                ]
            outcomes.append((deltas, answers))
        # Values are exact; dict order is not compared, because the merged
        # table's object order follows the partition layout.
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ----------------------------------------------------------------------
# observability: query.plans_built{kind}
# ----------------------------------------------------------------------
class TestPlansBuiltCounter:
    def test_standing_sessions_build_one_plan_each(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=3)
        sim = Simulation(config, build_symbolic=False)
        service = TrackingService(config)
        windows = [Rect(4, 0, 30, 12), Rect(40, 0, 60, 12)]
        points = [Point(30, 5), Point(10, 5), Point(50, 5)]
        for n, window in enumerate(windows):
            service.sessions.subscribe_range(window, session_id=f"r{n}")
        for n, point in enumerate(points):
            service.sessions.subscribe_knn(point, 2, session_id=f"k{n}")
        obs.enable()
        ticks = 6
        for batch in LiveSimSource(sim, ticks).batches():
            service.process_batch(batch)
        registry = obs.registry()
        assert service.ticks == ticks
        assert registry.counter("query.plans_built", {"kind": "range"}).value == 2
        assert registry.counter("query.plans_built", {"kind": "knn"}).value == 3

        for n in range(4):
            service.query_range(windows[0])
            service.query_knn(points[0], 1 + n)
        assert registry.counter("query.plans_built", {"kind": "range"}).value == 6
        assert registry.counter("query.plans_built", {"kind": "knn"}).value == 7
        assert registry.counter_total("query.plans_built") == 13
