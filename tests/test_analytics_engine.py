"""The analytics engine: one fold of each epoch's table.

Covers the region fold, the streaming histogram, the engine's
aggregates against a fresh fold of the last table (over a real replay
and over random hand-built histories), debounced flows, bit-exact
checkpoint resume (version 3, and version 2 from the committed gateway
fixture), and the density shim.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    HALLWAYS,
    AnalyticsEngine,
    RegionMap,
    StreamingHistogram,
    flow_key,
)
from repro.config import DEFAULT_CONFIG
from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
from repro.gateway import load_checkpoint as load_gateway_checkpoint
from repro.graph import build_anchor_index, build_walking_graph
from repro.index.hashtable import AnchorObjectTable
from repro.service import LiveSimSource, ReplaySource, TrackingService
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
        fold = engine.region_map.fold_table(table)
        assert list(fold.mass) == sorted(table.objects())
        for object_id, mass in fold.mass.items():
            distribution = table.distribution_of(object_id)
            assert sum(mass.values()) == pytest.approx(
                sum(distribution.values())
            )
            assert all(value > 0.0 for value in mass.values())
            assert list(mass) == sorted(mass)
        assert sum(fold.density.values()) == pytest.approx(len(table))
        assert sum(fold.occupancy.values()) == pytest.approx(len(table))

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


# ----------------------------------------------------------------------
# the engine's aggregates are a fold of the last table
# ----------------------------------------------------------------------
class _FakeSnapshot:
    """Minimal SnapshotLike: a second and a table."""

    def __init__(self, second, table):
        self.second = second
        self.table = table


def _reads(engine):
    """Every table-derived read of an engine."""
    return {
        "occupancy": engine.room_occupancy(),
        "heatmap": engine.heatmap(),
        "top": engine.top_regions(len(engine.region_map.regions)),
        "densities": engine.room_densities(),
    }


def _fresh_reads(service, second, table):
    fresh = AnalyticsEngine(service.plan, service.anchor_index)
    fresh.observe_snapshot(_FakeSnapshot(second, table))
    return _reads(fresh)


class TestEquivalence:
    def test_engine_matches_naive_recompute(self, replayed):
        """After a whole replay, every read equals a fold of the last
        table alone, bit for bit."""
        service, engine, snapshots = replayed
        last = snapshots[-1]
        fold = engine.region_map.fold_table(last.table)
        for region in engine.region_map.regions:
            assert engine.occupancy_of(region) == (
                fold.occupancy[region], fold.variance[region]
            )
        assert _reads(engine) == _fresh_reads(service, last.second, last.table)
        assert engine.tracked_objects() == len(last.table)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_aggregates_do_not_depend_on_history(self, replayed, data):
        service, attached, _ = replayed
        ap_ids = sorted(attached.region_map._region_of)
        distribution = st.dictionaries(
            st.sampled_from(ap_ids),
            st.floats(min_value=1e-3, max_value=1.0),
            min_size=1,
            max_size=5,
        )
        epochs = data.draw(
            st.lists(
                st.dictionaries(
                    st.sampled_from([f"o{i}" for i in range(6)]),
                    distribution,
                    min_size=1,
                    max_size=6,
                ),
                min_size=1,
                max_size=6,
            )
        )
        engine = AnalyticsEngine(service.plan, service.anchor_index)
        for second, epoch in enumerate(epochs):
            table = AnchorObjectTable.from_distributions(epoch.items())
            engine.observe_snapshot(_FakeSnapshot(second, table))
            assert _reads(engine) == _fresh_reads(service, second, table)

    def test_updates_count_folded_and_departed_objects(self, replayed):
        service, attached, _ = replayed
        _, _, a, b = _two_room_anchors(attached.region_map)
        engine = AnalyticsEngine(service.plan, service.anchor_index)
        epochs = [
            [("o1", {a: 1.0}), ("o2", {b: 1.0})],
            [("o1", {a: 1.0}), ("o2", {b: 1.0})],  # unchanged: still folded
            [("o2", {a: 1.0})],  # o1 departs
        ]
        for second, pairs in enumerate(epochs):
            delta = engine.observe_snapshot(
                _FakeSnapshot(second, AnchorObjectTable.from_distributions(pairs))
            )
        assert delta["updates"] == 2
        assert engine.updates == 2 + 2 + 2
        assert engine.tracked_objects() == 1

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


class TestTopRegions:
    def _engine(self, service, pairs):
        engine = AnalyticsEngine(service.plan, service.anchor_index)
        engine.observe_snapshot(
            _FakeSnapshot(0, AnchorObjectTable.from_distributions(pairs))
        )
        return engine

    def test_ties_break_by_region_id(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        first, second = sorted([room_a, room_b])
        engine = self._engine(service, [("o2", {b: 1.0}), ("o1", {a: 1.0})])
        assert engine.top_regions(2) == [(first, 1.0), (second, 1.0)]

    def test_nonpositive_k_is_empty(self, replayed):
        service, attached, _ = replayed
        _, _, a, _ = _two_room_anchors(attached.region_map)
        engine = self._engine(service, [("o1", {a: 1.0})])
        assert engine.top_regions(0) == []
        assert engine.top_regions(-3) == []

    def test_k_past_the_region_count_gives_every_region(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        engine = self._engine(service, [("o1", {a: 0.75, b: 0.25})])
        regions = engine.region_map.regions
        top = engine.top_regions(len(regions) + 5)
        assert len(top) == len(regions)
        assert top[:2] == [(room_a, 0.75), (room_b, 0.25)]
        assert sorted(region for region, _ in top[2:]) == [
            region for region in sorted(regions) if region not in (room_a, room_b)
        ]
        assert all(score == 0.0 for _, score in top[2:])


# ----------------------------------------------------------------------
# modal-readout hysteresis (flow debounce)
# ----------------------------------------------------------------------
def _two_room_anchors(region_map):
    """One anchor id in each of the first two rooms."""
    by_region = {}
    for ap_id in sorted(region_map._region_of):
        by_region.setdefault(region_map.region_of(ap_id), ap_id)
    room_a, room_b = region_map.room_ids()[:2]
    return room_a, room_b, by_region[room_a], by_region[room_b]


class TestFlowHysteresis:
    def _drive(self, service, anchors, hysteresis):
        """Run the engine over one object hopping through anchors."""
        engine = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=hysteresis
        )
        for second, ap_id in enumerate(anchors):
            table = AnchorObjectTable.from_distributions([("o1", {ap_id: 1.0})])
            engine.observe_snapshot(_FakeSnapshot(second, table))
        return engine

    def test_single_epoch_flap_is_debounced(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        engine = self._drive(service, [a, b, a, b, a], hysteresis=2)
        assert engine.flow_events == 0
        assert engine.flow_counts() == {}
        # The flapping object never left its committed region.
        assert engine.enter_leave_counts()[room_a]["leaves"] == 0

    def test_hysteresis_one_reproduces_flip_on_every_readout(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        engine = self._drive(service, [a, b, a, b, a], hysteresis=1)
        assert engine.flow_events == 4
        assert engine.flow_counts() == {
            flow_key(room_a, room_b): 2,
            flow_key(room_b, room_a): 2,
        }

    def test_sustained_move_commits_backdated(self, replayed):
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        # Seconds 0-2 in room A, 3-4 in room B: the candidate first
        # appears at second 3 and commits at second 4 (hysteresis 2),
        # backdating the dwell to seconds 0..3.
        engine = self._drive(service, [a, a, a, b, b], hysteresis=2)
        assert engine.flow_counts() == {flow_key(room_a, room_b): 1}
        assert engine.flow_events == 1
        histogram = engine.dwell_histogram(room_a)
        assert histogram.count == 1
        assert histogram.mean() == pytest.approx(3.0)

    def test_unchanged_posterior_still_accumulates_pending(self, replayed):
        """An unchanged posterior re-reads the same modal region, so a
        pending candidate keeps counting epochs."""
        service, attached, _ = replayed
        room_a, room_b, a, b = _two_room_anchors(attached.region_map)
        # Second 1 changes the posterior; seconds 2-3 repeat it exactly.
        engine = self._drive(service, [a, b, b, b], hysteresis=3)
        assert engine.flow_counts() == {flow_key(room_a, room_b): 1}
        assert engine.flow_events == 1

    def test_pending_state_survives_checkpoint(self, replayed):
        service, attached, _ = replayed
        _, _, a, b = _two_room_anchors(attached.region_map)
        cold = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=3
        )
        warm = AnalyticsEngine(
            service.plan, service.anchor_index, flow_hysteresis=3
        )
        tables = [
            AnchorObjectTable.from_distributions([("o1", {ap_id: 1.0})])
            for ap_id in [a, b, b, b]
        ]
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


# ----------------------------------------------------------------------
# checkpoint resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_engine_state_round_trip_is_bit_exact(self, replayed):
        service, engine, snapshots = replayed
        state = json.loads(json.dumps(engine.state_dict()))
        assert state["state_version"] == 3
        assert not {"occupancy", "occ_m2", "density"} & set(state)
        table = snapshots[-1].table
        assert [
            (object_id, [int(ap) for ap in record["dist"]])
            for object_id, record in state["objects"].items()
        ] == [
            (object_id, list(table.distribution_of(object_id)))
            for object_id in sorted(table.objects())
        ]
        fresh = AnalyticsEngine(service.plan, service.anchor_index)
        fresh.restore_state(state)
        assert fresh.state_dict() == engine.state_dict()
        assert _reads(fresh) == _reads(engine)
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


class TestVersion2State:
    """The analytics state of ``gateway-v2.json`` (written by a version-2
    build) restores, and resumes as its re-saved current state does.

    The fixture's tables came from the particle filter's earlier draw
    stream, so no run of this build reproduces the epochs before the cut;
    the resume is judged against the same state re-saved and restored."""

    CUT = 6
    SECONDS = 10

    @pytest.fixture(scope="class")
    def cold(self):
        """The fixture's gateway run (two ``small``-plan demo tenants of 5
        objects, 2 partitions), never interrupted: each tenant's geometry
        and every snapshot it published."""
        specs = demo_tenants(2, base_seed=101, num_objects=5, plan="small")
        batches, worlds = {}, {}
        for spec in specs:
            world = TenantWorld(spec)
            sim = Simulation(
                world.config, plan=world.plan, readers=world.readers,
                build_symbolic=False,
            )
            batches[spec.tenant_id] = list(LiveSimSource(sim, self.SECONDS).batches())
            graph = build_walking_graph(world.plan)
            worlds[spec.tenant_id] = (
                world.plan, build_anchor_index(graph, world.config.anchor_spacing)
            )
        snapshots = {tid: [] for tid in batches}
        with GatewayCoordinator(specs, num_partitions=2, transport="inline") as gateway:
            for step in range(self.SECONDS):
                for tid in batches:
                    gateway.submit_tick(tid, batches[tid][step])
                for _ in batches:
                    tid, _, _ = gateway.collect_tick()
                    snapshots[tid].append(gateway.latest_snapshot(tid))
        return worlds, snapshots

    def test_restores_and_resumes(self, cold):
        worlds, snapshots = cold
        path = os.path.join(
            os.path.dirname(__file__), "fixtures", "checkpoints", "gateway-v2.json"
        )
        services = load_gateway_checkpoint(path)["services"]
        for tid, (plan, anchor_index) in sorted(worlds.items()):
            saved = services[tid]["analytics"]
            assert saved["state_version"] == 2
            warm = AnalyticsEngine(plan, anchor_index)
            warm.restore_state(saved)
            # Before the first new epoch the v2 dists, sorted by anchor
            # id, may refold to different last bits.
            for region, cell in warm.room_occupancy().items():
                assert cell["expected"] == pytest.approx(
                    saved["occupancy"][region], abs=1e-12
                )
            uninterrupted = AnalyticsEngine(plan, anchor_index)
            uninterrupted.restore_state(warm.state_dict())
            for snapshot in snapshots[tid][self.CUT:]:
                warm.observe_snapshot(snapshot)
                uninterrupted.observe_snapshot(snapshot)
                assert warm.state_dict() == uninterrupted.state_dict()
                assert _reads(warm) == _reads(uninterrupted)
                assert warm.summary() == uninterrupted.summary()


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
        assert via_engine == via_query
        assert [z.expected_count for z in via_engine] == [
            engine.occupancy_of(z.zone_id)[0] for z in via_engine
        ]
