"""Failure injection: reader outages and how the system degrades."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.floorplan import small_test_plan
from repro.geometry import Point, Rect
from repro.queries import IndoorQueryEngine
from repro.rfid import DetectionModel, RFIDReader, ReaderOutage
from repro.sim.readings_sim import RawReadingGenerator

READERS = [
    RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
    RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
    RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
]


class TestReaderOutage:
    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            ReaderOutage("d1", 5, 5)

    def test_covers(self):
        outage = ReaderOutage("d1", 5, 10)
        assert not outage.covers(4)
        assert outage.covers(5)
        assert outage.covers(9)
        assert not outage.covers(10)

    def test_unknown_reader_rejected(self):
        with pytest.raises(ValueError, match="unknown reader"):
            DetectionModel(READERS, outages=[ReaderOutage("d99", 0, 5)])


class TestDarkReader:
    def _model(self, outages):
        return DetectionModel(
            READERS, detection_probability=1.0, samples_per_second=5,
            outages=outages,
        )

    def test_dark_reader_is_silent(self):
        model = self._model([ReaderOutage("d2", 5, 10)])
        in_range = {"tag1": Point(10, 5)}
        assert model.sample_second(7, in_range, rng=0) == []

    def test_dark_reader_recovers(self):
        model = self._model([ReaderOutage("d2", 5, 10)])
        in_range = {"tag1": Point(10, 5)}
        assert len(model.sample_second(10, in_range, rng=0)) == 5
        assert len(model.sample_second(4, in_range, rng=0)) == 5

    def test_other_readers_unaffected(self):
        model = self._model([ReaderOutage("d2", 0, 100)])
        readings = model.sample_second(
            3, {"tag1": Point(10, 5), "tag2": Point(3, 5)}, rng=0
        )
        assert {r.reader_id for r in readings} == {"d1"}

    def test_generator_passthrough(self):
        generator = RawReadingGenerator(
            READERS, 1.0, 5, rng=0, outages=[ReaderOutage("d1", 0, 50)]
        )
        readings = generator.generate(1, {"tag1": Point(3, 5)})
        assert readings == []


class TestSystemUnderOutage:
    def test_engine_survives_coverage_hole(self):
        """An object walks past a dead reader: the filter bridges the gap.

        The object walks right from d1 to d3 while d2 (the middle reader)
        is dark the entire time. At arrival the engine must still place
        the object near d3 from the d1 -> d3 reading sequence alone.
        """
        plan = small_test_plan()
        engine = IndoorQueryEngine(
            plan, READERS, {"tag1": "o1"}, config=DEFAULT_CONFIG
        )
        model = DetectionModel(
            READERS, detection_probability=1.0, samples_per_second=5,
            outages=[ReaderOutage("d2", 0, 100)],
        )
        rng = np.random.default_rng(0)
        for second in range(0, 16):
            x = 2.0 + second  # 1 m/s to the right from x=2
            readings = model.sample_second(second, {"tag1": Point(x, 5.0)}, rng)
            engine.ingest_second(second, readings)

        # Only d1 and d3 ever reported (d2 dark).
        history = engine.collector.history("o1")
        assert {run.reader_id for run in history.runs} <= {"d1", "d3"}
        result = engine.range_query(Rect(15, 4, 20, 6), 15)
        assert result.probabilities.get("o1", 0.0) > 0.5
