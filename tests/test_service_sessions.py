"""Standing-query sessions, the snapshot read path, and the scheduler."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.service import (
    BoundedQueue,
    EpochScheduler,
    ManualClock,
    ReplaySource,
    SourceFeeder,
    TrackingService,
)
from repro.sim import Simulation

FAST = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=11)


@pytest.fixture(scope="module")
def replay_readings():
    sim = Simulation(FAST, build_symbolic=False)
    readings = []
    for _ in range(20):
        readings.extend(sim.step())
    return readings


@pytest.fixture()
def service():
    svc = TrackingService(FAST)
    yield svc
    svc.close()


class TestSubscriptions:
    def test_callbacks_receive_deltas(self, service, replay_readings):
        received = []
        service.sessions.subscribe_range(
            service.plan.bounds, callback=received.append, session_id="everything"
        )
        for batch in ReplaySource(replay_readings, max_seconds=5).batches():
            service.process_batch(batch)
        assert received, "a building-wide window must produce deltas"
        assert all(delta.query_id == "everything" for delta in received)
        assert not any(delta.is_empty for delta in received)

    def test_unsubscribe_stops_delivery(self, service, replay_readings):
        received = []
        sid = service.sessions.subscribe_range(
            service.plan.bounds, callback=received.append
        )
        batches = list(ReplaySource(replay_readings, max_seconds=6).batches())
        service.process_batch(batches[0])
        count_before = len(received)
        assert service.sessions.unsubscribe(sid) is True
        for batch in batches[1:]:
            deltas = service.process_batch(batch)
            assert deltas == []  # no sessions left, nothing evaluated
        assert len(received) == count_before
        assert service.sessions.unsubscribe(sid) is False  # already gone

    def test_duplicate_session_id_rejected(self, service):
        service.sessions.subscribe_knn(Point(30, 5), 2, session_id="dup")
        with pytest.raises(ValueError, match="already subscribed"):
            service.sessions.subscribe_range(Rect(0, 0, 1, 1), session_id="dup")

    def test_pruning_uses_standing_queries(self, replay_readings):
        pruned = TrackingService(FAST, use_pruning=True)
        try:
            pruned.sessions.subscribe_range(Rect(4, 0, 10, 12), session_id="small")
            for batch in ReplaySource(replay_readings, max_seconds=8).batches():
                pruned.process_batch(batch)
            snap = pruned.snapshot()
            # The candidate set is query-aware: never more than the full
            # observed population, and recorded on the snapshot.
            assert snap.candidates <= set(pruned.collector.observed_objects())
        finally:
            pruned.close()


class TestSnapshotReads:
    def test_adhoc_queries_use_published_snapshot(self, service, replay_readings):
        for batch in ReplaySource(replay_readings, max_seconds=8).batches():
            service.process_batch(batch)
        snap = service.snapshot()
        assert snap.second == 8
        result = service.query_range(service.plan.bounds)
        assert result.probabilities  # every tracked object is in-building
        knn = service.query_knn(Point(30, 5), 3)
        assert knn.probabilities

    def test_snapshot_is_stable_across_later_ticks(self, service, replay_readings):
        batches = list(ReplaySource(replay_readings, max_seconds=6).batches())
        for batch in batches[:3]:
            service.process_batch(batch)
        old = service.snapshot()
        old_objects = {
            obj: old.table.distribution_of(obj) for obj in old.table.objects()
        }
        for batch in batches[3:]:
            service.process_batch(batch)
        # The previously published table was never mutated in place.
        assert old.second == 3
        assert {
            obj: old.table.distribution_of(obj) for obj in old.table.objects()
        } == old_objects

    def test_before_first_tick(self, service):
        assert service.snapshot().second == -1
        assert service.query_range(service.plan.bounds).probabilities == {}


class TestScheduler:
    def test_drains_queue_and_counts_ticks(self, service, replay_readings):
        queue = BoundedQueue(maxsize=4)
        feeder = SourceFeeder(ReplaySource(replay_readings, max_seconds=10), queue)
        scheduler = EpochScheduler(service, queue, clock=ManualClock())
        feeder.start()
        processed = scheduler.run()
        feeder.join(5.0)
        assert processed == 10
        assert service.ticks == 10
        assert service.last_second == 10

    def test_max_ticks_stops_early(self, service, replay_readings):
        queue = BoundedQueue(maxsize=4)
        feeder = SourceFeeder(ReplaySource(replay_readings, max_seconds=10), queue)
        scheduler = EpochScheduler(service, queue, clock=ManualClock())
        feeder.start()
        assert scheduler.run(max_ticks=4) == 4
        assert service.ticks == 4
        queue.close()
        feeder.join(5.0)

    def test_tick_interval_paces_with_injected_clock(self, service, replay_readings):
        clock = ManualClock()
        queue = BoundedQueue(maxsize=4)
        feeder = SourceFeeder(ReplaySource(replay_readings, max_seconds=3), queue)
        scheduler = EpochScheduler(service, queue, tick_interval=0.5, clock=clock)
        feeder.start()
        scheduler.run()
        feeder.join(5.0)
        # The loop never touched real wall-clock sleep: all pacing went
        # through the injected clock.
        assert len(clock.sleeps) == 3
        assert all(s <= 0.5 for s in clock.sleeps)

    def test_rejects_negative_interval(self, service):
        with pytest.raises(ValueError):
            EpochScheduler(service, BoundedQueue(), tick_interval=-1.0)
