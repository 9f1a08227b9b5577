"""Historical window queries, including reads across rotated generations."""

import json
from pathlib import Path

import pytest

from repro.analytics import (
    analytics_epochs,
    dwell_window,
    flow_window,
    occupancy_window,
    window_report,
)
from repro.obs.events import (
    EVENTS_FORMAT,
    EVENTS_VERSION,
    EpochEventWriter,
    generation_paths,
    read_all_events,
)


def _epoch_record(second, occupancy, flows=None, dwells=None):
    return {
        "second": second,
        "tick": second,
        "analytics": {
            "occupancy": occupancy,
            "flows": flows or {},
            "dwells": dwells or [],
            "updates": len(occupancy),
        },
    }


@pytest.fixture()
def rotated_log(tmp_path):
    """A log whose 9 epochs span three generations (two rotations)."""
    path = str(tmp_path / "events.jsonl")
    # Each record is ~120 bytes; rotate every ~3 records.
    writer = EpochEventWriter(path, rotate_bytes=400, keep=5)
    for second in range(1, 10):
        writer.write(
            _epoch_record(
                second,
                occupancy={"R1": float(second), "R2": 9.0 - second},
                flows={"R1->R2": 1} if second % 3 == 0 else None,
                dwells=[["R1", float(second)]] if second % 4 == 0 else None,
            )
        )
    writer.close()
    assert writer.rotations >= 2
    return path


# ----------------------------------------------------------------------
# generation discovery and multi-generation reads
# ----------------------------------------------------------------------
class TestGenerationReads:
    def test_generation_paths_oldest_first(self, rotated_log):
        paths = generation_paths(rotated_log)
        assert paths[-1] == rotated_log
        suffixes = [p.rsplit(".", 1)[-1] for p in paths[:-1]]
        assert suffixes == sorted(suffixes, key=int, reverse=True)

    def test_read_all_events_concatenates_in_time_order(self, rotated_log):
        headers, records = read_all_events(rotated_log)
        assert len(headers) == len(generation_paths(rotated_log))
        for header in headers:
            assert header == {"format": EVENTS_FORMAT, "version": EVENTS_VERSION}
        assert [r["second"] for r in records] == list(range(1, 10))

    def test_missing_generation_is_tolerated(self, rotated_log):
        import os

        victim = generation_paths(rotated_log)[0]
        os.remove(victim)  # rotation drops old generations by design
        _, records = read_all_events(rotated_log)
        seconds = [r["second"] for r in records]
        assert seconds == sorted(seconds)
        assert seconds[-1] == 9
        assert len(seconds) < 9

    def test_bad_generation_header_fails_the_read(self, rotated_log):
        victim = generation_paths(rotated_log)[0]
        lines = Path(victim).read_text().splitlines()
        lines[0] = json.dumps({"format": "not-epoch-events", "version": 1})
        Path(victim).write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            read_all_events(rotated_log)

    def test_no_generations_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_all_events(str(tmp_path / "absent.jsonl"))

    def test_unrotated_log_still_reads(self, tmp_path):
        path = str(tmp_path / "plain.jsonl")
        writer = EpochEventWriter(path)
        writer.write(_epoch_record(1, {"R1": 0.5}))
        writer.close()
        headers, records = read_all_events(path)
        assert len(headers) == 1
        assert [r["second"] for r in records] == [1]


# ----------------------------------------------------------------------
# window semantics over the recorded epochs
# ----------------------------------------------------------------------
class TestWindowQueries:
    def _records(self, rotated_log):
        return read_all_events(rotated_log)[1]

    def test_analytics_epochs_skips_bare_records(self, rotated_log):
        records = self._records(rotated_log) + [{"second": 99, "tick": 99}]
        epochs = analytics_epochs(records)
        assert [second for second, _ in epochs] == list(range(1, 10))

    def test_occupancy_window_is_inclusive_both_ends(self, rotated_log):
        records = self._records(rotated_log)
        stats = occupancy_window(records, "R1", t0=3, t1=7)
        assert stats["samples"] == 5
        assert stats["min"] == 3.0
        assert stats["max"] == 7.0
        assert stats["last"] == 7.0
        assert stats["mean"] == pytest.approx(5.0)

    def test_open_ended_window_sides(self, rotated_log):
        records = self._records(rotated_log)
        assert occupancy_window(records, "R1", t0=8)["samples"] == 2
        assert occupancy_window(records, "R1", t1=2)["samples"] == 2
        assert occupancy_window(records, "R1")["samples"] == 9

    def test_empty_window_reports_none_fields(self, rotated_log):
        records = self._records(rotated_log)
        stats = occupancy_window(records, "R1", t0=50, t1=60)
        assert stats == {
            "region": "R1",
            "samples": 0,
            "mean": None,
            "min": None,
            "max": None,
            "last": None,
        }

    def test_flow_window_sums_deltas(self, rotated_log):
        records = self._records(rotated_log)
        assert flow_window(records) == {"R1->R2": 3}  # seconds 3, 6, 9
        assert flow_window(records, t0=4, t1=9) == {"R1->R2": 2}
        assert flow_window(records, t0=10) == {}

    def test_dwell_window_collects_completions(self, rotated_log):
        records = self._records(rotated_log)
        histograms = dwell_window(records)  # dwells at seconds 4 and 8
        assert set(histograms) == {"R1"}
        assert histograms["R1"].count == 2
        assert histograms["R1"].mean() == pytest.approx(6.0)
        assert dwell_window(records, t0=5)["R1"].count == 1

    def test_window_report_document(self, rotated_log):
        records = self._records(rotated_log)
        report = window_report(records, t0=2, t1=8)
        assert report["epochs"] == 7
        assert report["first_second"] == 2
        assert report["last_second"] == 8
        assert set(report["occupancy"]) == {"R1", "R2"}
        assert report["flows"] == {"R1->R2": 2}
        assert report["dwell"]["R1"]["count"] == 2
        focused = window_report(records, t0=2, t1=8, region="R2")
        assert set(focused["occupancy"]) == {"R2"}
