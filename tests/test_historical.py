"""Tests for historical reading retention and time-travel queries."""

import pytest

from repro.collector.historical import HistoricalCollector
from repro.config import DEFAULT_CONFIG
from repro.floorplan import small_test_plan
from repro.geometry import Point, Rect
from repro.queries import IndoorQueryEngine
from repro.rfid import RFIDReader
from repro.rfid.readings import RawReading

TAGS = {"tag1": "o1"}


def raw(second, tag, reader):
    return [RawReading(second + 0.5, tag, reader)]


class TestHistoricalCollector:
    def _collector(self):
        collector = HistoricalCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        collector.ingest_second(5, raw(5, "tag1", "d2"))
        collector.ingest_second(9, raw(9, "tag1", "d3"))
        return collector

    def test_live_view_matches_snapshot_semantics(self):
        collector = self._collector()
        live = collector.history("o1")
        assert [run.reader_id for run in live.runs] == ["d2", "d3"]

    def test_full_runs_retained(self):
        collector = self._collector()
        runs = collector.full_runs("o1")
        assert [run.reader_id for run in runs] == ["d1", "d2", "d3"]

    def test_full_runs_are_copies(self):
        collector = self._collector()
        collector.full_runs("o1")[0].seconds.append(99)
        assert collector.full_runs("o1")[0].seconds == [0, 1]

    def test_history_as_of_early(self):
        collector = self._collector()
        history = collector.history_as_of("o1", 1)
        assert [run.reader_id for run in history.runs] == ["d1"]
        assert history.last_second == 1

    def test_history_as_of_mid(self):
        collector = self._collector()
        history = collector.history_as_of("o1", 6)
        assert [run.reader_id for run in history.runs] == ["d1", "d2"]

    def test_history_as_of_truncates_partial_runs(self):
        collector = HistoricalCollector(TAGS)
        collector.ingest_second(0, raw(0, "tag1", "d1"))
        collector.ingest_second(1, raw(1, "tag1", "d1"))
        collector.ingest_second(2, raw(2, "tag1", "d1"))
        history = collector.history_as_of("o1", 1)
        assert history.runs[0].seconds == [0, 1]

    def test_history_before_first_reading_is_empty(self):
        collector = HistoricalCollector(TAGS)
        collector.ingest_second(5, raw(5, "tag1", "d1"))
        assert collector.history_as_of("o1", 3).is_empty

    def test_last_detection_as_of(self):
        collector = self._collector()
        assert collector.last_detection_as_of("o1", 7) == ("d2", 5)
        assert collector.last_detection_as_of("o1", 100) == ("d3", 9)
        assert collector.last_detection_as_of("ghost", 5) is None

    def test_observed_objects_as_of(self):
        collector = self._collector()
        assert collector.observed_objects_as_of(0) == ["o1"]
        collector2 = HistoricalCollector(TAGS)
        assert collector2.observed_objects_as_of(10) == []

    def test_as_of_view_interface(self):
        collector = self._collector()
        view = collector.as_of_view(6)
        assert view.observed_objects() == ["o1"]
        assert view.last_detection("o1") == ("d2", 5)
        assert view.history("o1").latest_reader_id == "d2"
        assert view.device_generation("o1") == -1


class TestHistoricalEngine:
    def _engine(self):
        plan = small_test_plan()
        readers = [
            RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
            RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
            RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
        ]
        engine = IndoorQueryEngine(
            plan, readers, TAGS, config=DEFAULT_CONFIG, historical=True
        )
        # Walk right: d1 at t=0..1, d2 at t=7..8, d3 at t=14..15.
        for second, reader in [
            (0, "d1"), (1, "d1"), (7, "d2"), (8, "d2"), (14, "d3"), (15, "d3"),
        ]:
            engine.ingest_second(second, raw(second, "tag1", reader))
        return engine

    def test_past_query_sees_past_location(self):
        engine = self._engine()
        # At t=8 the object was at d2 (x~10): the window around d2 hits.
        result = engine.range_query_at(Rect(8, 4, 12, 6), 8)
        assert result.probabilities.get("o1", 0.0) > 0.5
        # ... and the window around d3 misses at that time.
        far = engine.range_query_at(Rect(15, 4, 19, 6), 8)
        assert far.probabilities.get("o1", 0.0) < 0.2

    def test_present_query_sees_present_location(self):
        engine = self._engine()
        result = engine.range_query_at(Rect(15, 4, 19, 6), 15)
        assert result.probabilities.get("o1", 0.0) > 0.5

    def test_knn_query_at(self):
        engine = self._engine()
        result = engine.knn_query_at(Point(10, 5), 1, 8)
        assert result.probabilities.get("o1", 0.0) > 0.9

    def test_historical_does_not_pollute_cache(self):
        engine = self._engine()
        assert engine.cache is not None
        engine.range_query_at(Rect(8, 4, 12, 6), 8)
        assert len(engine.cache) == 0

    def test_non_historical_engine_rejects(self):
        plan = small_test_plan()
        readers = [RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1")]
        engine = IndoorQueryEngine(plan, readers, TAGS)
        with pytest.raises(TypeError, match="historical"):
            engine.evaluate_at(5)
