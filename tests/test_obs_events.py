"""Epoch event log and Chrome trace export."""

import json

import pytest

from repro import obs
from repro.obs.chrometrace import (
    build_chrome_trace,
    chrome_trace_events,
    write_chrome_trace,
)
from repro.obs.events import (
    EVENTS_FORMAT,
    EVENTS_VERSION,
    EpochEventRecorder,
    EpochEventWriter,
    read_events,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


class FakeClock:
    def __init__(self, tick=1.0, start=0.0):
        self.tick = tick
        self.now = start

    def __call__(self):
        self.now += self.tick
        return self.now


# ----------------------------------------------------------------------
# writer / reader
# ----------------------------------------------------------------------
class TestEventWriter:
    def test_header_then_records(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = EpochEventWriter(str(path))
        writer.write({"tick": 1})
        writer.write({"tick": 2})
        writer.close()
        header, records = read_events(str(path))
        assert header == {"format": EVENTS_FORMAT, "version": EVENTS_VERSION}
        assert [r["tick"] for r in records] == [1, 2]
        assert writer.records_written == 2

    def test_close_is_idempotent(self, tmp_path):
        writer = EpochEventWriter(str(tmp_path / "e.jsonl"))
        writer.close()
        writer.close()

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_events(str(path))


# ----------------------------------------------------------------------
# rotation
# ----------------------------------------------------------------------
class TestRotation:
    def _fill(self, writer, n, start=0):
        for index in range(start, start + n):
            writer.write({"tick": index, "pad": "x" * 40})

    def test_rotates_at_byte_threshold(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = EpochEventWriter(str(path), rotate_bytes=300)
        self._fill(writer, 20)
        writer.close()
        assert writer.rotations >= 1
        assert (tmp_path / "events.jsonl.1").exists()
        # Live file still starts with a header and stays under-ish the cap
        # (rotation happens before the write that would exceed it).
        header, records = read_events(str(path))
        assert header["format"] == EVENTS_FORMAT
        assert records  # newest records live in the unsuffixed file

    def test_generations_shift_and_keep_n_prunes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = EpochEventWriter(str(path), rotate_bytes=150, keep=2)
        self._fill(writer, 40)
        writer.close()
        assert writer.rotations > 2
        assert (tmp_path / "events.jsonl.1").exists()
        assert (tmp_path / "events.jsonl.2").exists()
        assert not (tmp_path / "events.jsonl.3").exists()

    def test_every_generation_has_a_header(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = EpochEventWriter(str(path), rotate_bytes=200, keep=3)
        self._fill(writer, 30)
        writer.close()
        generations = [str(path)] + [
            str(tmp_path / f"events.jsonl.{i}")
            for i in range(1, 4)
            if (tmp_path / f"events.jsonl.{i}").exists()
        ]
        assert len(generations) >= 2
        all_ticks = []
        for generation in generations:
            header, records = read_events(generation)
            assert header == {
                "format": EVENTS_FORMAT, "version": EVENTS_VERSION,
            }
            all_ticks.extend(r["tick"] for r in records)
        # Newer generations hold newer ticks; nothing retained twice.
        assert len(all_ticks) == len(set(all_ticks))
        assert max(all_ticks) == 29

    def test_rotate_mb_converts_to_bytes(self, tmp_path):
        writer = EpochEventWriter(
            str(tmp_path / "e.jsonl"), rotate_mb=1.0
        )
        assert writer.rotate_bytes == 1024 * 1024
        writer.close()

    def test_no_rotation_without_limit(self, tmp_path):
        writer = EpochEventWriter(str(tmp_path / "e.jsonl"))
        self._fill(writer, 50)
        writer.close()
        assert writer.rotations == 0
        assert not (tmp_path / "e.jsonl.1").exists()

    def test_rejects_bad_rotation_config(self, tmp_path):
        with pytest.raises(ValueError):
            EpochEventWriter(str(tmp_path / "a.jsonl"), rotate_bytes=0)
        with pytest.raises(ValueError):
            EpochEventWriter(str(tmp_path / "b.jsonl"), keep=0)


# ----------------------------------------------------------------------
# per-epoch deltas
# ----------------------------------------------------------------------
class TestEventRecorder:
    def test_records_are_deltas_not_cumulative(self, tmp_path):
        obs.enable()
        path = tmp_path / "events.jsonl"
        writer = EpochEventWriter(str(path))
        recorder = EpochEventRecorder(writer, obs.registry())

        obs.add("service.ticks")
        obs.add("cache.hits", 3)
        recorder.record_epoch(second=1, tick=1, wall_seconds=0.5)
        obs.add("cache.hits", 1)
        obs.add("cache.misses", 1)
        recorder.record_epoch(second=2, tick=2, wall_seconds=0.25)
        writer.close()

        _, records = read_events(str(path))
        assert records[0]["cache"] == {
            "hits": 3, "misses": 0, "hit_ratio": 1.0,
        }
        assert records[1]["cache"] == {
            "hits": 1, "misses": 1, "hit_ratio": 0.5,
        }
        assert records[0]["counters"]["service.ticks"] == 1
        assert "service.ticks" not in records[1]["counters"]

    def test_accuracy_proxies_per_epoch(self, tmp_path):
        obs.enable()
        writer = EpochEventWriter(str(tmp_path / "e.jsonl"))
        recorder = EpochEventRecorder(writer, obs.registry())
        obs.observe("filter.ess", 10.0)
        obs.observe("filter.ess", 30.0)
        obs.add("filter.depletion_reseeds", 4)
        recorder.record_epoch(second=1, tick=1, wall_seconds=0.1)
        obs.observe("filter.ess", 50.0)
        recorder.record_epoch(second=2, tick=2, wall_seconds=0.1)
        writer.close()
        _, records = read_events(str(writer.path))
        assert records[0]["accuracy"]["ess_mean"] == pytest.approx(20.0)
        assert records[0]["accuracy"]["depletion_reseeds"] == 4
        assert records[1]["accuracy"]["ess_mean"] == pytest.approx(50.0)
        assert records[1]["accuracy"]["depletion_reseeds"] == 0
        assert sorted(records[0]["accuracy"]) == [
            "depletion_reseeds", "ess_collapse_frac", "ess_mean",
        ]

    def test_phase_timings(self, tmp_path):
        obs.enable()
        obs.set_clock(FakeClock(tick=1.0))
        writer = EpochEventWriter(str(tmp_path / "e.jsonl"))
        recorder = EpochEventRecorder(writer, obs.registry())
        with obs.timer("filter.predict"):
            pass
        with obs.timer("service.filter_tick", labels={"backend": "particle"}):
            pass
        recorder.record_epoch(second=1, tick=1, wall_seconds=0.5)
        writer.close()
        _, records = read_events(str(writer.path))
        assert records[0]["phases"]["filter.predict"] == pytest.approx(1.0)
        assert records[0]["phases"]["service.filter_tick"] == pytest.approx(1.0)
        assert records[0]["wall_seconds"] == 0.5

    def test_writerless_recorder_still_returns_records(self):
        obs.enable()
        recorder = EpochEventRecorder(None, obs.registry())
        obs.add("cache.hits", 2)
        record = recorder.record_epoch(second=1, tick=1, wall_seconds=0.1)
        assert record["cache"]["hits"] == 2
        # Baseline still rolls forward without a sink.
        record = recorder.record_epoch(second=2, tick=2, wall_seconds=0.1)
        assert record["cache"]["hits"] == 0

    def test_ess_collapse_frac(self):
        obs.enable()
        recorder = EpochEventRecorder(None, obs.registry())
        obs.observe("filter.ess", 40.0)
        obs.observe("filter.ess", 1.0)
        obs.add("filter.ess_collapses")
        record = recorder.record_epoch(second=1, tick=1, wall_seconds=0.1)
        assert record["accuracy"]["ess_collapse_frac"] == pytest.approx(0.5)
        record = recorder.record_epoch(second=2, tick=2, wall_seconds=0.1)
        assert record["accuracy"]["ess_collapse_frac"] is None

    def test_accuracy_provider_fields_merged(self, tmp_path):
        obs.enable()
        writer = EpochEventWriter(str(tmp_path / "e.jsonl"))
        recorder = EpochEventRecorder(
            writer,
            obs.registry(),
            accuracy_provider=lambda: {
                "occupancy_error_mean": 0.25,
                "occupancy_rooms_compared": 6,
            },
        )
        recorder.record_epoch(second=1, tick=1, wall_seconds=0.1)
        writer.close()
        _, records = read_events(str(writer.path))
        accuracy = records[0]["accuracy"]
        assert accuracy["occupancy_error_mean"] == 0.25
        assert accuracy["occupancy_rooms_compared"] == 6
        assert "ess_mean" in accuracy  # built-ins are not displaced


# ----------------------------------------------------------------------
# scheduler integration
# ----------------------------------------------------------------------
class TestSchedulerEventLog:
    def test_one_record_per_tick_and_health(self, tmp_path):
        from repro.config import DEFAULT_CONFIG
        from repro.service import (
            BoundedQueue,
            EpochScheduler,
            LiveSimSource,
            SourceFeeder,
            TrackingService,
        )
        from repro.service.scheduler import ManualClock
        from repro.sim import Simulation

        obs.enable()
        config = DEFAULT_CONFIG.with_overrides(
            num_objects=4, seed=11, observability=False
        )
        path = tmp_path / "epochs.jsonl"
        writer = EpochEventWriter(str(path))
        service = TrackingService(config, seed=11)
        sim = Simulation(config, build_symbolic=False)
        queue = BoundedQueue(maxsize=8)
        feeder = SourceFeeder(LiveSimSource(sim, 5), queue)
        scheduler = EpochScheduler(
            service,
            queue,
            clock=ManualClock(),
            event_recorder=EpochEventRecorder(writer, obs.registry()),
        )
        feeder.start()
        try:
            ticks = scheduler.run()
        finally:
            queue.close()
            feeder.join(timeout=10.0)
            service.close()
            writer.close()

        assert ticks == 5
        _, records = read_events(str(path))
        assert len(records) == 5
        assert [r["tick"] for r in records] == [1, 2, 3, 4, 5]
        assert all("phases" in r and "queue" in r for r in records)

        health = scheduler.health()
        assert health["status"] == "ok"
        assert health["ticks"] == 5
        assert health["filter_backend"] == "particle"
        assert scheduler.ready() is True

    def test_health_stall_detection(self):
        from repro.service import BoundedQueue, EpochScheduler
        from repro.service.scheduler import ManualClock

        class _StubExecutor:
            class filter_backend:
                name = "particle"

        class _StubService:
            executor = _StubExecutor()
            last_second = 3

            def snapshot(self):
                from repro.index.hashtable import AnchorObjectTable

                class _S:
                    table = AnchorObjectTable()

                return _S()

            @property
            def sessions(self):
                return []

        clock = ManualClock()
        scheduler = EpochScheduler(_StubService(), BoundedQueue(), clock=clock)
        assert scheduler.ready() is False
        scheduler.ticks_run = 1
        scheduler.last_tick_at = clock.now()
        clock.advance(100.0)
        assert scheduler.health()["status"] == "ok"
        assert scheduler.health(stall_after=50.0)["status"] == "stalled"
        assert scheduler.health(stall_after=500.0)["status"] == "ok"


# ----------------------------------------------------------------------
# chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def _snapshot(self):
        obs.enable()
        obs.set_clock(FakeClock(tick=0.5))
        with obs.span("service.tick", second=3):
            with obs.span("engine.filter"):
                pass
        return obs.snapshot()

    def test_events_are_complete_events_in_microseconds(self):
        events = chrome_trace_events(self._snapshot())
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 2
        for event in xs:
            assert event["cat"] == "repro"
            assert event["pid"] == 0
            assert isinstance(event["tid"], int)
            assert event["dur"] > 0
        child = next(e for e in xs if e["name"] == "engine.filter")
        parent = next(e for e in xs if e["name"] == "service.tick")
        assert parent["ts"] <= child["ts"]
        assert parent["args"]["second"] == 3

    def test_metadata_event_names_process(self):
        events = chrome_trace_events(self._snapshot())
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in meta)

    def test_document_shape_and_file_roundtrip(self, tmp_path):
        snap = self._snapshot()
        doc = build_chrome_trace(snap)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        path = tmp_path / "trace.json"
        write_chrome_trace(snap, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["traceEvents"] == json.loads(json.dumps(doc["traceEvents"]))

    def test_open_spans_are_skipped(self):
        obs.enable()
        tracer = obs.tracer()
        span = tracer.span("open.span")
        span.__enter__()
        events = chrome_trace_events(obs.snapshot())
        assert all(e["name"] != "open.span" for e in events if e["ph"] == "X")
        span.__exit__(None, None, None)
