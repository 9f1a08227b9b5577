"""The analytics engine: incremental aggregates vs full recompute.

Covers the region fold, the streaming structures, the engine's
incremental-vs-naive equivalence over a real replay, bit-exact
checkpoint resume through the service envelope, and the density shim
that now serves room densities from maintained mass.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    HALLWAYS,
    RECOMPUTE_TOLERANCE,
    AnalyticsEngine,
    LazyTopK,
    NaiveAnalytics,
    RegionMap,
    StreamingHistogram,
    flow_key,
)
from repro.config import DEFAULT_CONFIG
from repro.service import ReplaySource, TrackingService
from repro.sim import Simulation

FAST = DEFAULT_CONFIG.with_overrides(num_objects=6, seed=11)


@pytest.fixture(scope="module")
def replay_readings():
    sim = Simulation(FAST, build_symbolic=False)
    readings = []
    for _ in range(14):
        readings.extend(sim.step())
    return readings


@pytest.fixture(scope="module")
def replayed(replay_readings):
    """One analytics-enabled service run plus every published snapshot."""
    service = TrackingService(FAST, seed=FAST.seed)
    engine = service.enable_analytics()
    snapshots = []
    try:
        for batch in ReplaySource(replay_readings).batches():
            service.process_batch(batch)
            snapshots.append(service.snapshot())
    finally:
        service.close()
    return service, engine, snapshots


# ----------------------------------------------------------------------
# region fold
# ----------------------------------------------------------------------
class TestRegionMap:
    def test_fold_conserves_mass(self, replayed):
        service, engine, snapshots = replayed
        table = snapshots[-1].table
        region_map = engine.region_map
        for object_id in table.objects():
            distribution = table.distribution_of(object_id)
            mass = region_map.fold(distribution)
            assert sum(mass.values()) == pytest.approx(
                sum(distribution.values())
            )
            assert all(value > 0.0 for value in mass.values())
            assert list(mass) == sorted(mass)

    def test_regions_are_rooms_plus_hallways(self, replayed):
        _, engine, _ = replayed
        regions = engine.region_map.regions
        assert regions[-1] == HALLWAYS
        assert len(set(regions)) == len(regions)
        assert engine.region_map.room_ids() == list(regions[:-1])

    def test_modal_region_breaks_ties_lexicographically(self):
        assert RegionMap.modal_region({"R2": 0.4, "R1": 0.4, "R3": 0.2}) == "R1"
        assert RegionMap.modal_region({}) is None

    def test_flow_key_shape(self):
        assert flow_key("R1", HALLWAYS) == "R1->__hallways__"


# ----------------------------------------------------------------------
# streaming structures
# ----------------------------------------------------------------------
class TestStreamingHistogram:
    def test_bucketing_and_mean(self):
        histogram = StreamingHistogram(edges=(5.0, 10.0))
        for value in (1.0, 4.9, 5.0, 9.0, 100.0):
            histogram.add(value)
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.mean() == pytest.approx(119.9 / 5)

    def test_distance_empty_rules(self):
        a = StreamingHistogram(edges=(5.0,))
        b = StreamingHistogram(edges=(5.0,))
        assert a.distance(b) == 0.0
        b.add(1.0)
        assert a.distance(b) == 1.0
        a.add(100.0)
        assert a.distance(b) == 1.0  # disjoint buckets
        a.add(1.0)
        assert 0.0 < a.distance(b) < 1.0

    def test_state_round_trip(self):
        histogram = StreamingHistogram(edges=(2.0, 4.0))
        for value in (1.0, 3.0, 9.0):
            histogram.add(value)
        restored = StreamingHistogram.from_state(
            json.loads(json.dumps(histogram.state_dict()))
        )
        assert restored.state_dict() == histogram.state_dict()

    def test_rejects_unsorted_edges(self):
        with pytest.raises(ValueError):
            StreamingHistogram(edges=(5.0, 5.0))


class TestLazyTopK:
    def test_updates_supersede_and_ties_break_by_key(self):
        topk = LazyTopK()
        topk.update("b", 3.0)
        topk.update("a", 3.0)
        topk.update("c", 9.0)
        topk.update("c", 1.0)  # supersedes the 9.0 entry
        assert topk.top(2) == [("a", 3.0), ("b", 3.0)]
        assert topk.top(10) == [("a", 3.0), ("b", 3.0), ("c", 1.0)]
        assert topk.score_of("c") == 1.0

    def test_top_is_repeatable_after_compaction(self):
        topk = LazyTopK()
        for i in range(20):
            topk.update(f"k{i:02d}", float(i % 5))
        first = topk.top(4)
        assert topk.top(4) == first

    def test_state_round_trip(self):
        topk = LazyTopK()
        topk.update("x", 2.0)
        topk.update("y", 7.0)
        topk.update("x", 4.0)
        restored = LazyTopK.from_state(
            json.loads(json.dumps(topk.state_dict()))
        )
        assert restored.top(5) == topk.top(5)

    def test_heap_stays_bounded(self):
        # 30 live keys updated every tick with top(5) read every tick: the
        # stale backlog is rebuilt away instead of growing with the ticks.
        topk = LazyTopK()
        rng = random.Random(3)
        keys = [f"room-{i}" for i in range(30)]
        for _ in range(3000):
            for key in keys:
                topk.update(key, rng.random())
            topk.top(5)
            assert len(topk._heap) <= 2 * len(keys)
        assert len(topk) == 30

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("update"),
                    st.sampled_from("abcdefgh"),
                    st.sampled_from([0.0, 0.5, 1.0, 2.5, 7.0, -1.0]),
                ),
                st.tuples(st.just("top"), st.integers(-1, 10), st.just(0.0)),
            ),
            max_size=300,
        )
    )
    def test_top_matches_a_sorted_reference(self, ops):
        topk = LazyTopK()
        scores = {}
        for op, arg, score in ops:
            if op == "update":
                topk.update(arg, score)
                scores[arg] = score
                assert len(topk._heap) <= 2 * len(scores)
            else:
                ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
                assert topk.top(arg) == (ranked[:arg] if arg > 0 else [])
        assert topk.state_dict() == {"scores": dict(sorted(scores.items()))}


# ----------------------------------------------------------------------
# incremental vs recompute equivalence
# ----------------------------------------------------------------------
class TestEquivalence:
    def test_engine_matches_naive_recompute(self, replayed):
        service, engine, snapshots = replayed
        naive = NaiveAnalytics(service.plan, service.anchor_index)
        for snapshot in snapshots:
            naive.observe_snapshot(snapshot)
        for region in engine.region_map.regions:
            expected, variance = engine.occupancy_of(region)
            assert abs(expected - naive.occupancy[region]) <= RECOMPUTE_TOLERANCE
            assert abs(variance - naive.variance[region]) <= RECOMPUTE_TOLERANCE
        assert engine.flow_counts() == dict(sorted(naive.flows.items()))
        assert engine.flow_events == naive.flow_events
        counts = engine.enter_leave_counts()
        for region, cell in counts.items():
            assert cell["enters"] == naive.enters.get(region, 0)
            assert cell["leaves"] == naive.leaves.get(region, 0)
        for region, histogram in naive.dwell_region.items():
            assert engine.dwell_histogram(region).counts == histogram.counts
        assert engine.top_regions(5) == naive.top_regions(5)

    def test_self_check_passes_and_catches_drift(self, replayed):
        _, engine, snapshots = replayed
        table = snapshots[-1].table
        engine.self_check(table)
        poked = engine._occupancy[HALLWAYS]
        engine._occupancy[HALLWAYS] = poked + 0.5
        try:
            with pytest.raises(AssertionError):
                engine.self_check(table)
        finally:
            engine._occupancy[HALLWAYS] = poked

    def test_total_occupancy_equals_tracked_mass(self, replayed):
        _, engine, snapshots = replayed
        table = snapshots[-1].table
        total_mass = sum(
            sum(table.distribution_of(o).values()) for o in table.objects()
        )
        occupancy = engine.room_occupancy()
        assert sum(
            cell["expected"] for cell in occupancy.values()
        ) == pytest.approx(total_mass)

    def test_snapshots_must_advance_in_time(self, replayed):
        _, engine, snapshots = replayed
        with pytest.raises(ValueError):
            engine.observe_snapshot(snapshots[0])

    def test_heatmap_rows_are_ranked_and_positive(self, replayed):
        _, engine, _ = replayed
        rows = engine.heatmap(limit=10)
        masses = [mass for _, _, _, mass in rows]
        assert masses == sorted(masses, reverse=True)
        assert all(mass > 0.0 for mass in masses)


# ----------------------------------------------------------------------
# modal-readout hysteresis (flow debounce)
# ----------------------------------------------------------------------
class _FakeSnapshot:
    """Minimal SnapshotLike: a second and a table."""

    def __init__(self, second, table):
        self.second = second
        self.table = table


def _two_room_anchors(region_map):
    """One anchor id in each of the first two rooms."""
    by_region = {}
    for ap_id in sorted(region_map._region_of):
        by_region.setdefault(region_map.region_of(ap_id), ap_id)
    room_a, room_b = region_map.room_ids()[:2]
    return room_a, room_b, by_region[room_a], by_region[room_b]


class TestFlowHysteresis:
    def _drive(self, service, anchors, hysteresis):
        """Run engine + naive over one object hopping through anchors."""
        from repro.index.hashtable import AnchorObjectTable

        engine = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=hysteresis
        )
        naive = NaiveAnalytics(
            service.plan, service.anchor_index, flow_hysteresis=hysteresis
        )
        for second, ap_id in enumerate(anchors):
            table = AnchorObjectTable()
            table.set_distribution("o1", {ap_id: 1.0})
            engine.observe_snapshot(_FakeSnapshot(second, table))
            naive.observe_snapshot(_FakeSnapshot(second, table))
        return engine, naive

    def test_single_epoch_flap_is_debounced(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        engine, naive = self._drive(service, [a, b, a, b, a], hysteresis=2)
        assert engine.flow_events == 0
        assert engine.flow_counts() == {}
        assert naive.flow_events == 0
        # The flapping object never left its committed region.
        assert engine.enter_leave_counts()[room_a]["leaves"] == 0

    def test_hysteresis_one_reproduces_flip_on_every_readout(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        engine, naive = self._drive(service, [a, b, a, b, a], hysteresis=1)
        assert engine.flow_events == 4
        assert engine.flow_counts() == {
            flow_key(room_a, room_b): 2,
            flow_key(room_b, room_a): 2,
        }
        assert naive.flow_events == 4

    def test_sustained_move_commits_backdated(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        # Seconds 0-2 in room A, 3-4 in room B: the candidate first
        # appears at second 3 and commits at second 4 (hysteresis 2),
        # backdating the dwell to seconds 0..3.
        engine, naive = self._drive(service, [a, a, a, b, b], hysteresis=2)
        assert engine.flow_counts() == {flow_key(room_a, room_b): 1}
        assert engine.flow_events == 1
        histogram = engine.dwell_histogram(room_a)
        assert histogram.count == 1
        assert histogram.mean() == pytest.approx(3.0)
        assert naive.flows == {flow_key(room_a, room_b): 1}
        assert engine.dwell_histogram(room_a).counts == (
            naive.dwell_region[room_a].counts
        )

    def test_unchanged_posterior_still_accumulates_pending(self, replayed):
        """The engine's skip-unchanged fast path must count epochs the
        naive full-recompute comparator counts."""
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        # Second 1 changes the posterior; seconds 2-3 repeat it exactly,
        # so only the pending counter (not the aggregates) may advance.
        engine, naive = self._drive(service, [a, b, b, b], hysteresis=3)
        assert engine.flow_counts() == {flow_key(room_a, room_b): 1}
        assert engine.flow_events == naive.flow_events == 1
        assert dict(sorted(naive.flows.items())) == engine.flow_counts()

    def test_pending_state_survives_checkpoint(self, replayed):
        service, attached, _ = replayed
        _, _, a, b = _two_room_anchors(attached.region_map)
        from repro.index.hashtable import AnchorObjectTable

        cold = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=3
        )
        warm = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=3
        )
        tables = []
        for ap_id in [a, b, b, b]:
            table = AnchorObjectTable()
            table.set_distribution("o1", {ap_id: 1.0})
            tables.append(table)
        for second in (0, 1):  # leaves a pending candidate at count 1
            cold.observe_snapshot(_FakeSnapshot(second, tables[second]))
        state = json.loads(json.dumps(cold.state_dict()))
        warm.restore_state(state)
        assert warm.state_dict() == cold.state_dict()
        for second in (2, 3):  # commit happens after the restore
            cold.observe_snapshot(_FakeSnapshot(second, tables[second]))
            warm.observe_snapshot(_FakeSnapshot(second, tables[second]))
        assert warm.state_dict() == cold.state_dict()
        assert warm.flow_events == 1

    def test_rejects_nonpositive_hysteresis(self, replayed):
        service, _, _ = replayed
        with pytest.raises(ValueError):
            AnalyticsEngine(service.plan, service.anchor_index, flow_hysteresis=0)
        with pytest.raises(ValueError):
            NaiveAnalytics(service.plan, service.anchor_index, flow_hysteresis=0)


# ----------------------------------------------------------------------
# checkpoint resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_engine_state_round_trip_is_bit_exact(self, replayed):
        service, engine, _ = replayed
        state = json.loads(json.dumps(engine.state_dict()))
        fresh = AnalyticsEngine(service.plan, service.anchor_index)
        fresh.restore_state(state)
        assert fresh.state_dict() == engine.state_dict()
        assert fresh.top_regions(5) == engine.top_regions(5)
        assert fresh.summary() == engine.summary()

    def test_resumed_engine_continues_identically(self, replay_readings):
        """Cold run vs checkpoint-resumed run: identical aggregates."""
        cold = TrackingService(FAST, seed=FAST.seed)
        cold.enable_analytics()
        warm_front = TrackingService(FAST, seed=FAST.seed)
        warm_front.enable_analytics()
        try:
            for batch in ReplaySource(replay_readings).batches():
                cold.process_batch(batch)
            for batch in ReplaySource(replay_readings, max_seconds=7).batches():
                warm_front.process_batch(batch)
            envelope = json.loads(json.dumps(warm_front.state_dict()))
        finally:
            warm_front.close()
        warm = TrackingService(FAST, seed=FAST.seed)
        try:
            warm.restore_state(envelope)
            assert warm.analytics is not None  # auto-resumed from envelope
            for batch in ReplaySource(
                replay_readings, start_after=7
            ).batches():
                warm.process_batch(batch)
            assert warm.analytics.state_dict() == cold.analytics.state_dict()
        finally:
            warm.close()
            cold.close()

    def test_version_mismatch_is_rejected(self, replayed):
        service, engine, _ = replayed
        state = json.loads(json.dumps(engine.state_dict()))
        state["state_version"] = 99
        fresh = AnalyticsEngine(service.plan, service.anchor_index)
        with pytest.raises(ValueError):
            fresh.restore_state(state)


# ----------------------------------------------------------------------
# density shim
# ----------------------------------------------------------------------
class TestDensityShim:
    def test_engine_room_densities_match_query_layer(self, replayed):
        from repro.queries.density import room_densities

        service, engine, snapshots = replayed
        table = snapshots[-1].table
        via_query = room_densities(
            service.plan, service.anchor_index, table, top_n=3
        )
        via_engine = engine.room_densities(top_n=3)
        assert [z.zone_id for z in via_engine] == [z.zone_id for z in via_query]
        for mine, theirs in zip(via_engine, via_query):
            assert mine.expected_count == pytest.approx(
                theirs.expected_count, abs=RECOMPUTE_TOLERANCE
            )
            assert [o for o, _ in mine.top_objects] == [
                o for o, _ in theirs.top_objects
            ]
