"""Tests for the query-aware optimization module (paper Section 4.3)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import EventDrivenCollector
from repro.config import DEFAULT_CONFIG
from repro.geometry import Circle, Point, Rect
from repro.graph.location import GraphLocation
from repro.queries import (
    IndoorQueryEngine,
    KNNQuery,
    QueryAwareOptimizer,
    RangeQuery,
    uncertain_region,
)
from repro.queries.knn_query import KNNPlan
from repro.rfid.readings import RawReading
from repro.service import ReplaySource, TrackingService
from repro.sim import Simulation
from repro.symbolic.inference import SymbolicLocationModel


def raw(second, tag, reader):
    return [RawReading(second + 0.5, tag, reader)]


def plan_of(optimizer, query):
    """The query's kNN plan, as an engine builds it before pruning."""
    return KNNPlan.build(query, optimizer.graph, optimizer.anchor_index)


@pytest.fixture
def optimizer(paper_graph, paper_anchors, paper_readers_by_id):
    return QueryAwareOptimizer(
        paper_graph, paper_anchors, paper_readers_by_id, DEFAULT_CONFIG
    )


@pytest.fixture
def collector(paper_readers_by_id):
    tags = {f"tag{i}": f"o{i}" for i in range(1, 6)}
    c = EventDrivenCollector(tags)
    # o1..o5 each seen at a different reader at second 0.
    readings = []
    for i, reader_id in enumerate(["d1", "d4", "d8", "d12", "d16"], start=1):
        readings += raw(0, f"tag{i}", reader_id)
    c.ingest_second(0, readings)
    return c


class TestUncertainRegion:
    def test_fresh_detection(self, paper_readers_by_id):
        reader = paper_readers_by_id["d1"]
        region = uncertain_region(reader, last_second=10, now=10, max_speed=1.5)
        assert region.center == reader.position
        assert region.radius == pytest.approx(reader.activation_range)

    def test_grows_with_time(self, paper_readers_by_id):
        reader = paper_readers_by_id["d1"]
        region = uncertain_region(reader, last_second=10, now=20, max_speed=1.5)
        assert region.radius == pytest.approx(15.0 + 2.0)

    def test_rejects_time_travel(self, paper_readers_by_id):
        with pytest.raises(ValueError):
            uncertain_region(paper_readers_by_id["d1"], 10, 5, 1.5)


class TestRangeCandidates:
    def test_window_far_from_everyone(self, optimizer, collector):
        queries = [RangeQuery("q", Rect(0, 28, 3, 31))]
        candidates = optimizer.candidates(collector, now=1, range_queries=queries)
        # Window is a corner far from all five readers at t=1.
        regions = per_object_regions(optimizer, collector, 1)
        expected = {
            o for o, r in regions.items() if r.intersects_rect(queries[0].window)
        }
        assert candidates == expected

    def test_window_over_reader_catches_its_object(
        self, optimizer, collector, paper_readers_by_id
    ):
        pos = paper_readers_by_id["d1"].position
        window = Rect(pos.x - 1, pos.y - 1, pos.x + 1, pos.y + 1)
        candidates = optimizer.candidates(
            collector, now=1, range_queries=[RangeQuery("q", window)]
        )
        assert "o1" in candidates

    def test_uncertainty_growth_adds_candidates(
        self, optimizer, collector, paper_readers_by_id
    ):
        pos = paper_readers_by_id["d1"].position
        window = Rect(pos.x - 1, pos.y - 1, pos.x + 1, pos.y + 1)
        soon = optimizer.candidates(
            collector, now=1, range_queries=[RangeQuery("q", window)]
        )
        later = optimizer.candidates(
            collector, now=60, range_queries=[RangeQuery("q", window)]
        )
        assert soon <= later
        assert len(later) >= len(soon)

    def test_empty_without_queries(self, optimizer, collector):
        assert optimizer.candidates(collector, now=1) == set()


class TestKnnCandidates:
    def test_all_kept_when_fewer_than_k(self, optimizer, collector, paper_readers_by_id):
        query = KNNQuery("q", paper_readers_by_id["d1"].position, k=10)
        candidates = optimizer.candidates(collector, now=1, knn_plans=[plan_of(optimizer, query)])
        assert candidates == {"o1", "o2", "o3", "o4", "o5"}

    def test_prunes_far_objects(self, optimizer, collector, paper_readers_by_id):
        query = KNNQuery("q", paper_readers_by_id["d1"].position, k=1)
        candidates = optimizer.candidates(collector, now=1, knn_plans=[plan_of(optimizer, query)])
        assert "o1" in candidates
        assert len(candidates) < 5

    def test_never_prunes_true_nearest(
        self, optimizer, collector, paper_graph, paper_readers_by_id
    ):
        # The object at d1 is by construction the nearest to d1's position.
        query = KNNQuery("q", paper_readers_by_id["d1"].position, k=1)
        candidates = optimizer.candidates(collector, now=5, knn_plans=[plan_of(optimizer, query)])
        assert "o1" in candidates

    def test_safety_under_growth(self, optimizer, collector, paper_readers_by_id):
        # As uncertainty grows, pruning must only get more conservative.
        query = KNNQuery("q", paper_readers_by_id["d1"].position, k=2)
        plan = plan_of(optimizer, query)
        soon = optimizer.candidates(collector, now=1, knn_plans=[plan])
        later = optimizer.candidates(collector, now=120, knn_plans=[plan])
        assert soon <= later


class TestQueryTypes:
    def test_knn_query_requires_positive_k(self):
        with pytest.raises(ValueError):
            KNNQuery("q", Point(0, 0), k=0)

    def test_union_over_queries(self, optimizer, collector, paper_readers_by_id):
        d1 = paper_readers_by_id["d1"].position
        d16 = paper_readers_by_id["d16"].position
        both = optimizer.candidates(
            collector,
            now=1,
            range_queries=[RangeQuery("r", Rect(d1.x - 1, d1.y - 1, d1.x + 1, d1.y + 1))],
            knn_plans=[plan_of(optimizer, KNNQuery("k", d16, k=1))],
        )
        assert "o1" in both
        assert "o5" in both


# ----------------------------------------------------------------------
# one anchor-distance vector per query: bit identity with the loop it
# replaced
# ----------------------------------------------------------------------
def reference_distance_bounds(optimizer, q_loc, q_point, region):
    """The per-anchor ``graph.distance`` loop the distance vector replaced."""
    pad = optimizer.anchor_index.spacing
    anchors = optimizer.anchor_index.in_circle(region)
    if not anchors:
        loc, _ = optimizer.graph.locate(region.center)
        dist = optimizer.graph.distance(q_loc, loc)
        return dist, dist
    distances = [optimizer.graph.distance(q_loc, ap.location) for ap in anchors]
    euclid_floor = max(q_point.distance_to(region.center) - region.radius, 0.0)
    s_i = max(min(distances) - pad, euclid_floor, 0.0)
    l_i = max(distances) + pad
    return s_i, l_i


def per_object_regions(optimizer, collector, now):
    """One ``UR(o_i)`` per object, as the optimizer built them before sharing."""
    regions = {}
    for object_id in collector.observed_objects():
        detection = collector.last_detection(object_id)
        if detection is not None:
            reader_id, last_second = detection
            regions[object_id] = uncertain_region(
                optimizer.readers[reader_id], last_second, now,
                optimizer.config.max_speed,
            )
    return regions


def reference_range_candidates(regions, queries):
    return {
        object_id
        for object_id, region in regions.items()
        if any(region.intersects_rect(q.window) for q in queries)
    }


def reference_knn_candidates(optimizer, regions, query):
    if not regions:
        return set()
    q_loc, _ = optimizer.graph.locate(query.point)
    bounds = {
        object_id: reference_distance_bounds(optimizer, q_loc, query.point, region)
        for object_id, region in regions.items()
    }
    if len(bounds) <= query.k:
        return set(bounds)
    f = sorted(hi for _, hi in bounds.values())[query.k - 1]
    return {object_id for object_id, (s_i, _) in bounds.items() if s_i <= f}


def saturation_dt(optimizer, reader):
    """The first whole-second gap at which ``UR`` holds every anchor."""
    dt = 0
    while len(optimizer.anchor_index.in_circle(
        uncertain_region(reader, 0, dt, optimizer.config.max_speed)
    )) < len(optimizer.anchor_index):
        dt += 1
    return dt


def _plan_locations(graph):
    """A random location on a random edge, ends included exactly."""
    edges = graph.edges
    return st.sampled_from(edges).flatmap(
        lambda edge: st.one_of(
            st.sampled_from([0.0, edge.length]),
            st.floats(min_value=0.0, max_value=edge.length),
        ).map(lambda offset: GraphLocation(edge.edge_id, offset))
    )


class TestNetworkDistances:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equals_graph_distance_bit_for_bit(
        self, data, paper_graph, paper_anchors, small_graph, small_anchors
    ):
        graph, anchors = data.draw(
            st.sampled_from([(paper_graph, paper_anchors), (small_graph, small_anchors)])
        )
        loc = data.draw(_plan_locations(graph))
        vector = anchors.network_distances(loc)
        assert vector.dtype == np.float64
        assert vector.shape == (len(anchors),)
        as_floats = vector.tolist()
        for ap in anchors:
            expected = graph.distance(loc, ap.location)
            assert as_floats[ap.ap_id] == expected, (loc, ap.ap_id)
            assert type(as_floats[ap.ap_id]) is type(expected)

    @pytest.mark.parametrize("plan", ["paper", "small"])
    def test_symbolic_distances_equal_the_per_anchor_loop(
        self, plan, request, small_readers, paper_readers
    ):
        graph = request.getfixturevalue(f"{plan}_graph")
        anchors = request.getfixturevalue(f"{plan}_anchors")
        readers = paper_readers if plan == "paper" else small_readers
        model = SymbolicLocationModel(graph, anchors, readers, DEFAULT_CONFIG)
        for reader in readers:
            reader_loc, _ = graph.locate(reader.position)
            expected = {
                ap.ap_id: graph.distance(reader_loc, ap.location) for ap in anchors
            }
            got = model._anchor_distance[reader.reader_id]
            assert list(got.items()) == list(expected.items()), reader.reader_id


class TestVectorBounds:
    @pytest.mark.parametrize("seed", [0, 7, 31])
    def test_bounds_equal_the_reference_loop(self, optimizer, paper_plan, seed):
        rng = np.random.default_rng(seed)
        bounds = paper_plan.bounds
        q_point = Point(
            float(rng.uniform(bounds.min_x, bounds.max_x)),
            float(rng.uniform(bounds.min_y, bounds.max_y)),
        )
        plan = plan_of(optimizer, KNNQuery("q", q_point, k=1))
        q_loc, _ = optimizer.graph.locate(q_point)
        regions, wants = [], []
        for reader in optimizer.readers.values():
            for dt in range(saturation_dt(optimizer, reader) + 4):
                region = uncertain_region(reader, 0, dt, DEFAULT_CONFIG.max_speed)
                [got] = optimizer._distance_bounds(plan, [region])
                want = reference_distance_bounds(optimizer, q_loc, q_point, region)
                assert got == want, (reader.reader_id, dt)
                assert all(type(v) is float for v in got)
                regions.append(region)
                wants.append(want)
        # One batched call over every region, saturated ones included.
        assert optimizer._distance_bounds(plan, regions) == wants

    def test_degenerate_region_falls_back_to_the_centre(self, optimizer):
        # A zero-radius circle between anchors holds no anchor.
        edge = optimizer.graph.edges[0]
        centre = edge.point_at(0.5 * optimizer.anchor_index.spacing)
        region = Circle(centre, 0.0)
        assert len(optimizer.region_anchor_ids(region)) == 0
        q_point = optimizer.readers["d1"].position
        q_loc, _ = optimizer.graph.locate(q_point)
        plan = plan_of(optimizer, KNNQuery("q", q_point, k=1))
        assert optimizer._distance_bounds(plan, [region]) == [
            reference_distance_bounds(optimizer, q_loc, q_point, region)
        ]

    def test_knn_candidates_equal_the_reference_on_a_replay(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=30, seed=11)
        sim = Simulation(config, build_symbolic=False)
        engine = sim.pf_engine
        optimizer = engine.optimizer
        checked = 0
        for now in (20, 45, 70, 100):
            sim.run_until(now)
            regions = optimizer._uncertain_regions(
                engine.collector, engine.collector.observed_objects(), now
            )
            per_object = per_object_regions(optimizer, engine.collector, now)
            for point in sim.random_query_points(3):
                for k in (1, 3, 5):
                    query = KNNQuery("q", point, k=k)
                    got = optimizer.knn_candidates(regions, plan_of(optimizer, query))
                    assert got == reference_knn_candidates(optimizer, per_object, query)
                    checked += len(per_object) > k
        assert checked > 0


class TestRegionMemo:
    def test_ids_equal_in_circle_and_are_read_only(self, optimizer):
        reader = optimizer.readers["d4"]
        # The saturating circle comes first: smaller ones must not share it.
        for dt in (10_000, 0, 3, 9):
            region = uncertain_region(reader, 0, dt, DEFAULT_CONFIG.max_speed)
            ids = optimizer.region_anchor_ids(region)
            assert ids.dtype == np.int64
            assert not ids.flags.writeable
            assert ids.tolist() == [
                ap.ap_id for ap in optimizer.anchor_index.in_circle(region)
            ]
            with pytest.raises(ValueError):
                ids[0] = 0

    def test_repeated_region_skips_in_circle(self, optimizer, monkeypatch):
        region = uncertain_region(
            optimizer.readers["d8"], 0, 4, DEFAULT_CONFIG.max_speed
        )
        first = optimizer.region_anchor_ids(region)
        calls = []
        monkeypatch.setattr(
            optimizer.anchor_index, "in_circle",
            lambda circle: calls.append(circle) or [],
        )
        again = uncertain_region(
            optimizer.readers["d8"], 10, 14, DEFAULT_CONFIG.max_speed
        )
        assert again == region and again is not region
        assert optimizer.region_anchor_ids(again) is first
        assert calls == []

    def test_memo_stops_growing_past_saturation(self, optimizer):
        total = 0
        for reader in optimizer.readers.values():
            saturation = saturation_dt(optimizer, reader)
            for dt in range(saturation):
                optimizer.region_anchor_ids(
                    uncertain_region(reader, 0, dt, DEFAULT_CONFIG.max_speed)
                )
            total += saturation
            assert len(optimizer._region_ids) == total
            shared = {
                id(optimizer.region_anchor_ids(
                    uncertain_region(reader, 0, dt, DEFAULT_CONFIG.max_speed)
                ))
                for dt in range(saturation, saturation + 40)
            }
            assert len(shared) == 1
            assert len(optimizer._region_ids) == total
        every = optimizer.region_anchor_ids(
            uncertain_region(optimizer.readers["d1"], 0, 10_000, DEFAULT_CONFIG.max_speed)
        )
        assert sorted(every.tolist()) == list(range(len(optimizer.anchor_index)))
        assert not every.flags.writeable
        assert len(optimizer._region_ids) == total


# ----------------------------------------------------------------------
# one pass per uncertain region: bit identity with the per-object loop
# ----------------------------------------------------------------------
def crowded_collector(readers, objects, seconds, seed):
    """``objects`` objects, each last seen at one of a few (reader, second) pairs."""
    rng = np.random.default_rng(seed)
    reader_ids = sorted(readers)[:: max(1, len(readers) // 4)]
    tags = {f"tag{i}": f"o{i}" for i in range(objects)}
    collector = EventDrivenCollector(tags)
    for second in range(seconds):
        readings = []
        for i in range(objects):
            if rng.random() < 0.5 or second == 0:
                reader_id = reader_ids[int(rng.integers(len(reader_ids)))]
                readings += raw(second, f"tag{i}", reader_id)
        collector.ingest_second(second, readings)
    return collector


def _count_locates(monkeypatch, graph):
    calls = []
    original = graph.locate
    monkeypatch.setattr(graph, "locate", lambda p: calls.append(p) or original(p))
    return calls


def _count_vectors(monkeypatch, anchor_index):
    calls = []
    original = anchor_index.network_distances
    monkeypatch.setattr(
        anchor_index, "network_distances",
        lambda loc: calls.append(loc) or original(loc),
    )
    return calls


class TestSharedRegions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_objects_share_regions(self, optimizer, paper_readers_by_id, seed):
        collector = crowded_collector(paper_readers_by_id, 60, 3, seed)
        regions = optimizer._uncertain_regions(
            collector, collector.observed_objects(), 5
        )
        assert len(regions) < 20
        per_object = per_object_regions(optimizer, collector, 5)
        assert sorted(o for _, members in regions for o in members) == sorted(per_object)
        for region, members in regions:
            assert all(per_object[o] == region for o in members)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidates_equal_the_per_object_reference(
        self, optimizer, paper_plan, paper_readers_by_id, seed
    ):
        collector = crowded_collector(paper_readers_by_id, 60, 3, seed)
        rng = np.random.default_rng(100 + seed)
        bounds = paper_plan.bounds
        checked = 0
        for now in (2, 4, 9):
            per_object = per_object_regions(optimizer, collector, now)
            regions = optimizer._uncertain_regions(
                collector, collector.observed_objects(), now
            )
            for _ in range(4):
                point = Point(
                    float(rng.uniform(bounds.min_x, bounds.max_x)),
                    float(rng.uniform(bounds.min_y, bounds.max_y)),
                )
                window = Rect(point.x - 4, point.y - 3, point.x + 4, point.y + 3)
                assert optimizer.range_candidates(
                    regions, [RangeQuery("r", window)]
                ) == reference_range_candidates(per_object, [RangeQuery("r", window)])
                for k in (1, 2, 5, 13, 59, 60, 61):
                    query = KNNQuery("q", point, k=k)
                    plan = plan_of(optimizer, query)
                    want = reference_knn_candidates(optimizer, per_object, query)
                    assert optimizer.knn_candidates(regions, plan) == want
                    assert optimizer.candidates(
                        collector, now, knn_plans=[plan]
                    ) == want
                    checked += len(want) < len(per_object)
        assert checked > 0

    def test_plans_bring_their_located_point(
        self, optimizer, paper_graph, paper_anchors, paper_readers_by_id, monkeypatch
    ):
        collector = crowded_collector(paper_readers_by_id, 30, 3, 4)
        query = KNNQuery("q", paper_readers_by_id["d8"].position, k=3)
        plan = KNNPlan.build(query, paper_graph, paper_anchors)
        want = reference_knn_candidates(
            optimizer, per_object_regions(optimizer, collector, 6), query
        )
        located = _count_locates(monkeypatch, optimizer.graph)
        vectors = _count_vectors(monkeypatch, optimizer.anchor_index)
        assert optimizer.candidates(collector, 6, knn_plans=[plan]) == want
        assert located == [] and vectors == []


class TestStandingKnnIsLocatedOnce:
    SECONDS = 20

    @pytest.fixture(scope="class")
    def world(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=12, seed=5)
        sim = Simulation(config, build_symbolic=False)
        readings = [r for _ in range(self.SECONDS) for r in sim.step()]
        return config, sim, readings

    def test_indoor_query_engine(self, world, monkeypatch):
        config, sim, readings = world
        engine = IndoorQueryEngine(
            sim.plan, sim.readers, sim.trace.tag_to_object(), config=config,
            use_pruning=True,
        )
        engine.register_knn_query(KNNQuery("k", sim.readers[3].position, 3))
        calls = _count_locates(monkeypatch, engine.graph)
        for batch in ReplaySource(readings).batches():
            engine.step(batch.second, batch.readings)
        assert engine.collector.observed_objects()
        assert len(calls) == 1

    def test_tracking_service(self, world, monkeypatch):
        config, sim, readings = world
        with TrackingService(config, plan=sim.plan, readers=sim.readers,
                             use_pruning=True, seed=5) as service:
            service.sessions.subscribe_knn(sim.readers[3].position, 3)
            calls = _count_locates(monkeypatch, service.graph)
            for batch in ReplaySource(readings).batches():
                service.process_batch(batch)
            assert service.ticks == self.SECONDS
        assert len(calls) == 1

    def test_pruned_session_computes_its_distances_once(self, world, monkeypatch):
        config, sim, readings = world
        with TrackingService(config, plan=sim.plan, readers=sim.readers,
                             use_pruning=True, seed=5) as service:
            service.sessions.subscribe_knn(sim.readers[3].position, 3)
            vectors = _count_vectors(monkeypatch, service.anchor_index)
            for batch in ReplaySource(readings).batches():
                service.process_batch(batch)
            assert service.ticks == self.SECONDS
        assert len(vectors) == 1
