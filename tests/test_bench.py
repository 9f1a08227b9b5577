"""The benchmark suite and its regression gate (repro.bench)."""

import copy
import json
import os

import pytest

from repro import obs
from repro.bench import (
    RESULT_FORMAT,
    RESULT_VERSION,
    compare_results,
    default_result_name,
    load_result,
    render_report,
    run_suite,
    write_result,
)
from repro.bench.compare import (
    EXIT_INCOMPARABLE,
    EXIT_OK,
    EXIT_REGRESSION,
    BenchFormatError,
)
from repro.bench.suite import calibration_kernel_seconds


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _fake_result(**overrides):
    base = {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "profile": "smoke",
        "seed": 7,
        "calibration_seconds": 0.2,
        "workloads": {
            "filter_replay": {
                "name": "filter_replay",
                "wall_seconds": 1.0,
                "work": {"filter.runs": 100, "answers": 19},
                "digest": "sha256:aaa",
            },
            "query_eval": {
                "name": "query_eval",
                "wall_seconds": 0.5,
                "work": {"matched": 42},
                "digest": "sha256:bbb",
            },
        },
    }
    base.update(overrides)
    return base


# ----------------------------------------------------------------------
# the gate
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_results_pass(self):
        report = compare_results(_fake_result(), _fake_result())
        assert report.passed
        assert report.exit_code == EXIT_OK
        assert all(r.work_ok and r.timing_ok for r in report.rows)

    def test_slowdown_beyond_tolerance_fails(self):
        slow = _fake_result()
        slow["workloads"]["filter_replay"]["wall_seconds"] = 2.0
        report = compare_results(_fake_result(), slow, tolerance=1.5)
        assert report.exit_code == EXIT_REGRESSION
        assert any("slowdown" in p for p in report.problems)

    def test_slowdown_within_tolerance_passes(self):
        slow = _fake_result()
        slow["workloads"]["filter_replay"]["wall_seconds"] = 1.4
        assert compare_results(_fake_result(), slow, tolerance=1.5).passed

    def test_calibration_normalizes_machine_speed(self):
        # Candidate is 2x slower on the wall clock, but its calibration
        # kernel is also 2x slower: same code on a slower machine. Pass.
        slow_machine = _fake_result(calibration_seconds=0.4)
        for workload in slow_machine["workloads"].values():
            workload["wall_seconds"] *= 2.0
        report = compare_results(_fake_result(), slow_machine, tolerance=1.1)
        assert report.passed

    def test_work_counter_drift_fails_even_when_fast(self):
        drifted = _fake_result()
        drifted["workloads"]["query_eval"]["work"]["matched"] = 43
        drifted["workloads"]["query_eval"]["wall_seconds"] = 0.1
        report = compare_results(_fake_result(), drifted)
        assert report.exit_code == EXIT_REGRESSION
        assert any("work profile changed" in p for p in report.problems)

    def test_missing_work_counter_fails(self):
        drifted = _fake_result()
        del drifted["workloads"]["filter_replay"]["work"]["answers"]
        assert not compare_results(_fake_result(), drifted).passed

    def test_digest_informational_by_default(self):
        changed = _fake_result()
        changed["workloads"]["query_eval"]["digest"] = "sha256:zzz"
        assert compare_results(_fake_result(), changed).passed
        strict = compare_results(_fake_result(), changed, strict_digest=True)
        assert strict.exit_code == EXIT_REGRESSION

    def test_profile_mismatch_is_incomparable(self):
        other = _fake_result(profile="full")
        report = compare_results(_fake_result(), other)
        assert report.incomparable
        assert report.exit_code == EXIT_INCOMPARABLE

    def test_workload_set_mismatch_is_incomparable(self):
        other = _fake_result()
        del other["workloads"]["query_eval"]
        assert compare_results(_fake_result(), other).exit_code == EXIT_INCOMPARABLE

    def test_render_report_mentions_each_workload(self):
        report = compare_results(_fake_result(), _fake_result())
        text = render_report(report)
        assert "filter_replay" in text and "query_eval" in text
        assert "PASS" in text


# ----------------------------------------------------------------------
# result files
# ----------------------------------------------------------------------
class TestResultFiles:
    def test_write_and_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "bench.json")
        write_result(_fake_result(), path)
        assert load_result(path)["workloads"]["query_eval"]["work"] == {
            "matched": 42
        }

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(BenchFormatError):
            load_result(str(path))

    def test_load_rejects_newer_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(_fake_result(version=RESULT_VERSION + 1))
        )
        with pytest.raises(BenchFormatError):
            load_result(str(path))

    def test_default_result_name_is_dated(self):
        import datetime

        name = default_result_name(datetime.date(2026, 8, 6))
        assert name == "BENCH_2026-08-06.json"

    def test_default_result_name_takes_the_first_free_name(self, tmp_path):
        import datetime

        day = datetime.date(2026, 8, 6)
        assert default_result_name(day, str(tmp_path)) == "BENCH_2026-08-06.json"
        (tmp_path / "BENCH_2026-08-06.json").write_text("{}")
        assert default_result_name(day, str(tmp_path)) == "BENCH_2026-08-06-2.json"
        (tmp_path / "BENCH_2026-08-06-2.json").write_text("{}")
        assert default_result_name(day, str(tmp_path)) == "BENCH_2026-08-06-3.json"


# ----------------------------------------------------------------------
# the suite itself (kept tiny: structure + determinism of work profiles)
# ----------------------------------------------------------------------
class TestSuite:
    def test_calibration_kernel_is_positive(self):
        assert calibration_kernel_seconds(repeats=1) > 0.0

    def test_smoke_suite_structure_and_determinism(self):
        first = run_suite(profile="smoke", seed=7)
        second = run_suite(profile="smoke", seed=7)
        assert first["format"] == RESULT_FORMAT
        assert set(first["workloads"]) == {
            "filter_replay", "service_replay", "query_eval",
            "profiler_overhead", "analytics_replay", "gateway_throughput",
        }
        for name, workload in first["workloads"].items():
            assert workload["wall_seconds"] > 0.0
            assert workload["work"], f"{name} recorded no work counters"
            assert all(
                isinstance(v, int) for v in workload["work"].values()
            ), f"{name} has non-integer work counters"
        # Same code + same seed must do identical work: this is what lets
        # the CI gate compare counters exactly across machines.
        for name in first["workloads"]:
            assert (
                first["workloads"][name]["work"]
                == second["workloads"][name]["work"]
            ), f"{name} work profile is nondeterministic"
            assert (
                first["workloads"][name]["digest"]
                == second["workloads"][name]["digest"]
            ), f"{name} digest is nondeterministic"

    def test_suite_restores_observability_session(self):
        obs.enable()
        run_suite(profile="smoke", seed=7)
        assert obs.enabled()

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            run_suite(profile="huge")


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestBenchCli:
    def test_run_then_compare_passes(self, tmp_path, capsys):
        from repro.cli import main

        out = str(tmp_path / "bench.json")
        assert main(["bench", "run", "--smoke", "--out", out]) == 0
        assert (
            main(["bench", "compare", out, "--baseline", out]) == 0
        )
        assert "verdict: PASS" in capsys.readouterr().out

    def test_run_leaves_a_same_day_artifact_untouched(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.bench
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(repro.bench, "run_suite", lambda **_: _fake_result())
        (tmp_path / "benchmarks").mkdir()
        existing = tmp_path / "benchmarks" / default_result_name()
        existing.write_text("committed artifact\n")
        assert main(["bench", "run", "--smoke"]) == 0
        assert existing.read_text() == "committed artifact\n"
        second = tmp_path / "benchmarks" / default_result_name().replace(
            ".json", "-2.json"
        )
        assert load_result(str(second))["workloads"] == _fake_result()["workloads"]
        assert f"result -> {os.path.join('benchmarks', second.name)}" in (
            capsys.readouterr().out
        )

    def test_compare_fails_on_injected_slowdown(self, tmp_path, capsys):
        from repro.cli import main

        baseline = _fake_result()
        slow = copy.deepcopy(baseline)
        slow["workloads"]["filter_replay"]["wall_seconds"] = 10.0
        base_path = str(tmp_path / "base.json")
        slow_path = str(tmp_path / "slow.json")
        write_result(baseline, base_path)
        write_result(slow, slow_path)
        assert (
            main(["bench", "compare", slow_path, "--baseline", base_path])
            == EXIT_REGRESSION
        )
        assert "verdict: FAIL" in capsys.readouterr().out

    def test_compare_bad_file_exits_incomparable(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        good = str(tmp_path / "good.json")
        write_result(_fake_result(), good)
        code = main(["bench", "compare", str(bad), "--baseline", good])
        assert code == EXIT_INCOMPARABLE
