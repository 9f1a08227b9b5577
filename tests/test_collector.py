"""Tests for aggregation, the collector retention policy, and ENTER/LEAVE."""

import numpy as np
import pytest

from repro import obs

from repro.collector import (
    DeviceRun,
    EventDrivenCollector,
    ReadingHistory,
    aggregate_second,
)
from repro.rfid.readings import RawReading

TAGS = {"tag1": "o1", "tag2": "o2"}


def raw(second, tag, reader, count=3):
    return [
        RawReading(second + (i + 0.5) / 10, tag, reader) for i in range(count)
    ]


class TestAggregation:
    def test_single_object(self):
        result = aggregate_second(5, raw(5, "tag1", "d1"), TAGS)
        assert result["o1"].reader_id == "d1"
        assert result["o1"].second == 5

    def test_majority_reader_wins(self):
        readings = raw(0, "tag1", "d1", count=2) + raw(0, "tag1", "d2", count=5)
        result = aggregate_second(0, readings, TAGS)
        assert result["o1"].reader_id == "d2"

    def test_tie_breaks_by_reader_id(self):
        readings = raw(0, "tag1", "d2", count=3) + raw(0, "tag1", "d1", count=3)
        result = aggregate_second(0, readings, TAGS)
        assert result["o1"].reader_id == "d1"

    def test_unknown_tags_ignored(self):
        result = aggregate_second(0, raw(0, "ghost", "d1"), TAGS)
        assert result == {}

    def test_wrong_second_rejected(self):
        with pytest.raises(ValueError):
            aggregate_second(1, raw(0, "tag1", "d1"), TAGS)

    def test_empty(self):
        assert aggregate_second(0, [], TAGS) == {}


class TestCollectorRetention:
    def test_single_run(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        history = collector.history("o1")
        assert len(history.runs) == 1
        assert history.runs[0].reader_id == "d1"
        assert history.runs[0].seconds == [0, 1]
        assert history.first_second == 0
        assert history.last_second == 1
        assert history.latest_reader_id == "d1"
        assert history.previous_reader_id is None

    def test_two_runs(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(5, raw(5, "tag1", "d2"))
        history = collector.history("o1")
        assert [run.reader_id for run in history.runs] == ["d1", "d2"]
        assert history.previous_reader_id == "d1"
        assert history.initial_reader_id == "d1"

    def test_third_device_evicts_oldest(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(5, raw(5, "tag1", "d2"))
        collector.ingest_second(9, raw(9, "tag1", "d3"))
        history = collector.history("o1")
        assert [run.reader_id for run in history.runs] == ["d2", "d3"]
        assert history.first_second == 5

    def test_same_device_reappearing_extends_run(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        collector.ingest_second(7, raw(7, "tag1", "d1"))  # gap, same device
        history = collector.history("o1")
        assert len(history.runs) == 1
        assert history.runs[0].seconds == [0, 1, 7]

    def test_device_bounce_keeps_two_runs(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(4, raw(4, "tag1", "d2"))
        collector.ingest_second(8, raw(8, "tag1", "d1"))
        history = collector.history("o1")
        assert [run.reader_id for run in history.runs] == ["d2", "d1"]

    def test_empty_history(self):
        collector = EventDrivenCollector(TAGS)
        assert collector.history("o1").is_empty
        assert collector.last_detection("o1") is None

    def test_out_of_order_ingestion_rejected(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(5, raw(5, "tag1", "d1"))
        with pytest.raises(ValueError):
            collector.ingest_second(5, raw(5, "tag1", "d1"))
        with pytest.raises(ValueError):
            collector.ingest_second(3, raw(3, "tag1", "d1"))

    def test_last_detection(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(6, raw(6, "tag1", "d2"))
        assert collector.last_detection("o1") == ("d2", 6)

    def test_observed_objects(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1") + raw(0, "tag2", "d3"))
        assert sorted(collector.observed_objects()) == ["o1", "o2"]

    def test_tags_registered_later_are_ingested_from_then_on(self):
        """A population that grows: a tag's readings count only once it is
        registered, and registering keeps earlier objects' histories."""
        collector = EventDrivenCollector({"tag1": "o1"})
        collector.ingest_second(1, raw(1, "tag1", "d1") + raw(1, "tag2", "d2"))
        assert collector.observed_objects() == ["o1"]
        assert not collector.knows_tag("tag2")
        collector.register_tags({"tag2": "o2"})
        assert collector.knows_tag("tag2")
        collector.ingest_second(2, raw(2, "tag1", "d1") + raw(2, "tag2", "d2"))
        assert sorted(collector.observed_objects()) == ["o1", "o2"]
        assert collector.history("o1").first_second == 1
        assert collector.history("o2").first_second == 2
        assert collector.last_detection("o2") == ("d2", 2)

    def test_device_generation_bumps_on_new_device_only(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        g1 = collector.device_generation("o1")
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        assert collector.device_generation("o1") == g1
        collector.ingest_second(2, raw(2, "tag1", "d2"))
        assert collector.device_generation("o1") == g1 + 1


class TestHistoryEntries:
    def _history(self):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        collector.ingest_second(4, raw(4, "tag1", "d2"))
        return collector.history("o1")

    def test_entries_cover_span_with_gaps(self):
        entries = self._history().entries()
        assert [e.second for e in entries] == [0, 1, 2, 3, 4]
        assert [e.reader_id for e in entries] == ["d1", "d1", None, None, "d2"]

    def test_reading_at(self):
        history = self._history()
        assert history.reading_at(0) == "d1"
        assert history.reading_at(2) is None
        assert history.reading_at(4) == "d2"
        assert history.reading_at(99) is None

    def test_reading_at_matches_a_scan_over_long_runs_with_gaps(self):
        rng = np.random.default_rng(8)
        older = [s for s in range(10_000) if rng.random() > 0.3]
        newer = [s for s in range(10_000, 20_000) if rng.random() > 0.6]
        history = ReadingHistory(
            "o1", (DeviceRun("d1", older), DeviceRun("d2", newer))
        )

        def scan(second):
            for run in history.runs:
                if second in run.seconds:
                    return run.reader_id
            return None

        probes = list(range(-3, 20_003, 7)) + older[::97] + newer[::89]
        for second in probes:
            assert history.reading_at(second) == scan(second)
        assert history.reading_at(older[0]) == "d1"
        assert history.reading_at(newer[-1]) == "d2"


@pytest.fixture
def counted():
    """Observability on with a fresh registry; off again afterwards."""
    obs.enable(fresh=True)
    yield obs.registry()
    obs.disable()
    obs.reset()


class TestEvents:
    """ENTER/LEAVE leave three traces: the device runs, the device
    generation (the cache-invalidation signal of paper Section 4.5) and
    the ``collector.enter_events``/``leave_events`` counters."""

    def test_enter_leave_sequence(self, counted):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        assert collector.device_generation("o1") == 1
        collector.ingest_second(5, raw(5, "tag1", "d2"))
        runs = [(run.reader_id, run.seconds) for run in collector.history("o1").runs]
        assert runs == [("d1", [0, 1]), ("d2", [5])]
        assert collector.device_generation("o1") == 2
        assert counted.counter_total("collector.enter_events") == 2
        assert counted.counter_total("collector.leave_events") == 1

    def test_events_multiple_objects(self, counted):
        collector = EventDrivenCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1") + raw(0, "tag2", "d2"))
        assert collector.device_generation("o1") == 1
        assert collector.device_generation("o2") == 1
        assert counted.counter_total("collector.enter_events") == 2
        assert counted.counter_total("collector.leave_events") == 0

    def test_state_holds_no_event_log(self):
        collector = EventDrivenCollector(TAGS)
        for second, reader in enumerate(["d1", "d2", "d3", "d1"]):
            collector.ingest_second(second, raw(second, "tag1", reader))
        state = collector.state_dict()
        assert "events" not in state
        assert [run["reader_id"] for run in state["runs"]["o1"]] == ["d3", "d1"]
        assert state["generations"] == {"o1": 4}


class TestDeviceRun:
    def test_rejects_out_of_order_seconds(self):
        from repro.collector import DeviceRun

        run = DeviceRun("d1", [3])
        with pytest.raises(ValueError):
            run.add(3)
        run.add(4)
        assert run.first_second == 3
        assert run.last_second == 4
