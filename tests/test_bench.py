"""The bench digest lock: ``repro bench`` must reproduce BENCH_BASELINE.json.

Every value in the document is exact (integer work counters and answer
digests at one fixed seed), so the suite runs once per module and its
bytes must equal the committed baseline. After a deliberate behavior
change, re-pin with ``repro bench --out benchmarks/BENCH_BASELINE.json``.
"""

import contextlib
import copy
import io
import json
import os

import pytest

from repro import obs
from repro.bench import RESULT_FORMAT, render_result, run_suite, write_result

BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "BENCH_BASELINE.json",
)

with open(BASELINE, encoding="utf-8") as _handle:
    PINNED = json.load(_handle)


def mismatches(pinned, got):
    """What moved from ``pinned`` to ``got``, one line per change."""
    lines = []
    pinned_names, got_names = set(pinned["workloads"]), set(got["workloads"])
    for name in sorted(pinned_names ^ got_names):
        side = "missing" if name in pinned_names else "unpinned"
        lines.append(f"{name}: {side} workload")
    for name in sorted(pinned_names & got_names):
        was, now = pinned["workloads"][name], got["workloads"][name]
        if now["digest"] != was["digest"]:
            lines.append(f"{name}: answer digest moved")
        for counter in sorted(was["work"].keys() | now["work"].keys()):
            if now["work"].get(counter) != was["work"].get(counter):
                lines.append(
                    f"{name}: work counter {counter} moved from "
                    f"{was['work'].get(counter)} to {now['work'].get(counter)}"
                )
    return lines


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """One ``repro bench --out`` run inside a caller's enabled obs session."""
    from repro.cli import main

    out = tmp_path_factory.mktemp("bench") / "bench.json"
    printed = io.StringIO()
    obs.reset()
    obs.enable()
    try:
        with contextlib.redirect_stdout(printed):
            code = main(["bench", "--out", str(out)])
        still_enabled = obs.enabled()
    finally:
        obs.disable()
        obs.reset()
    return {
        "code": code,
        "text": out.read_text(encoding="utf-8"),
        "printed": printed.getvalue(),
        "still_enabled": still_enabled,
    }


class TestSuite:
    def test_bench_exits_zero(self, bench_run):
        assert bench_run["code"] == 0

    def test_suite_restores_observability_session(self, bench_run):
        assert bench_run["still_enabled"]

    def test_bench_prints_the_document_it_writes(self, bench_run):
        assert bench_run["printed"] == bench_run["text"]

    def test_smoke_suite_structure_and_determinism(self, bench_run):
        result = run_suite()
        assert result["format"] == RESULT_FORMAT
        assert set(result["workloads"]) == set(PINNED["workloads"])
        for name, entry in result["workloads"].items():
            assert set(entry) == {"digest", "work"}, name
            assert entry["digest"].startswith("sha256:"), name
            assert entry["work"], name
            assert all(type(value) is int for value in entry["work"].values()), name
        # A second run, outside the fixture's obs session, reproduces it.
        assert result == json.loads(bench_run["text"])


class TestResultFiles:
    def test_write_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "nested" / "bench.json")
        assert write_result(PINNED, path) == path
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        assert text == render_result(PINNED)
        assert json.loads(text) == PINNED


class TestCompare:
    def test_digest_drift_alone_fails(self):
        got = copy.deepcopy(PINNED)
        got["workloads"]["query_eval"]["digest"] = "sha256:" + "0" * 64
        assert mismatches(PINNED, got) == ["query_eval: answer digest moved"]

    def test_workload_set_mismatch_is_incomparable(self):
        got = copy.deepcopy(PINNED)
        del got["workloads"]["filter_replay"]
        got["workloads"]["extra"] = {"digest": "sha256:", "work": {"runs": 1}}
        assert mismatches(PINNED, got) == [
            "extra: unpinned workload",
            "filter_replay: missing workload",
        ]

    def test_counter_drift_and_counter_set_are_named(self):
        got = copy.deepcopy(PINNED)
        work = got["workloads"]["service_replay"]["work"]
        deltas = work["deltas"]
        work["deltas"] += 1
        work["new_counter"] = 0
        assert mismatches(PINNED, got) == [
            f"service_replay: work counter deltas moved from {deltas} to {deltas + 1}",
            "service_replay: work counter new_counter moved from None to 0",
        ]


class TestDigestLock:
    @pytest.mark.parametrize("name", sorted(PINNED["workloads"]))
    def test_workload_matches_the_baseline(self, bench_run, name):
        got = json.loads(bench_run["text"])["workloads"].get(name)
        assert got is not None, f"{name}: missing workload"
        pinned = {"workloads": {name: PINNED["workloads"][name]}}
        assert mismatches(pinned, {"workloads": {name: got}}) == []

    def test_document_is_byte_identical_to_the_baseline(self, bench_run):
        with open(BASELINE, encoding="utf-8") as handle:
            assert bench_run["text"] == handle.read()
