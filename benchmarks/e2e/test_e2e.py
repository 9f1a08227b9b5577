"""Self-tests of the end-to-end benchmark harness: ``pytest benchmarks/e2e``.

Workloads run at toy sizes here (the command line always runs the full
sizes), so these tests check the harness, not the system's speed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

assert run._require_sources()

import repro.filters.particle as particle_module  # noqa: E402
from verdicts import compare, verdict  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, run_workload  # noqa: E402

TOY = {
    "live_tracking": dict(objects=8, warmup=2, probes=2, checkpoint_every=2,
                          digest_units=3, accuracy_units=3),
    "ondemand_queries": dict(objects=8, warmup=5, digest_units=3, accuracy_units=3),
    "query_serving": dict(objects=8, warmup=2, queries=10, scored=4, sessions=2,
                          digest_units=2, accuracy_units=2),
    "gateway_fleet": dict(objects=6, warmup=2, probes=2, digest_units=3, accuracy_units=3),
}


@pytest.fixture(scope="module")
def bench_spec():
    return run._load_json(run.BENCHMARK)


@pytest.fixture(scope="module")
def toy_runs():
    return {
        name: [run_workload(name, 3, 0.0, trace, **sizes) for trace in (False, True)]
        for name, sizes in TOY.items()
    }


def test_benchmark_file_matches_harness(bench_spec):
    assert [w["name"] for w in bench_spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench_spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench_spec["per_layer"]} == PER_LAYER
    assert bench_spec["paths"] == ["benchmarks/e2e"]


def test_each_workload_emits_exactly_the_benchmark_metrics(bench_spec, toy_runs):
    end_to_end = {m["name"] for m in bench_spec["end_to_end"]}
    per_layer = {m["name"] for m in bench_spec["per_layer"]}
    for untraced, traced in toy_runs.values():
        assert set(untraced["metrics"]) == end_to_end
        assert set(traced["metrics"]) == per_layer
        assert untraced["correct"] and traced["correct"]
        assert untraced["attempted"] >= 1 and untraced["failed"] == 0


def test_traced_and_untraced_digests_are_equal(toy_runs):
    for untraced, traced in toy_runs.values():
        assert untraced["digest"] == traced["digest"]
        assert traced["metrics"]["trace.coverage"]["value"] > 0.5


def test_tracer_puts_module_callables_back(toy_runs):
    from repro.core.discretize import particles_to_anchor_distribution

    assert particle_module.particles_to_anchor_distribution is particles_to_anchor_distribution


def test_seed_drives_the_inputs():
    def first_readings(seed):
        load = WORKLOADS["live_tracking"](seed, objects=8).load
        return [load[i].batch.readings for i in range(5)], load[4].queries

    assert first_readings(3) == first_readings(3)
    assert first_readings(3) != first_readings(4)


def _detail(workload, values, trace=0):
    return {
        "workload": workload,
        "trace": trace,
        "metrics": {name: {"value": value, "unit": "ms"} for name, value in values.items()},
    }


@pytest.mark.parametrize(
    "parent, change, better, expected",
    [
        ([100, 101, 99], [102, 103, 101], "lower", "unchanged"),
        ([100, 101, 99], [120, 121, 119], "lower", "worse"),
        ([100, 101, 99], [80, 81, 79], "lower", "better"),
        ([100, 101, 99], [80, 81, 79], "higher", "worse"),
        ([100, 160, 60, 130, 70], [101, 102, 100], "lower", "unresolved"),
        ([100, 160, 60, 130, 70], [20, 21, 19], "lower", "better"),
        ([100], [105], "lower", "unchanged"),
    ],
)
def test_verdict(parent, change, better, expected):
    assert verdict(parent, change, better, 0.10) == expected


def test_compare_on_synthetic_documents(tmp_path, bench_spec):
    def write(name, values):
        path = tmp_path / name
        path.write_text(json.dumps(_detail("live_tracking", values)))
        return str(path)

    parent = [write(f"p{i}.json", {"tick_p50_ms": 300 + i, "setup_s": 0.02}) for i in range(3)]
    same = [write(f"c{i}.json", {"tick_p50_ms": 301 + i, "setup_s": 0.02}) for i in range(3)]
    slow = [write(f"s{i}.json", {"tick_p50_ms": 400 + i, "setup_s": 0.02}) for i in range(3)]

    noisy = [write(f"n{i}.json", {"tick_p50_ms": v, "setup_s": 0.02})
             for i, v in enumerate((150, 300, 450, 600))]

    _, records = compare(bench_spec, parent, same)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in records}
    assert verdicts[("live_tracking", "tick_p50_ms")] == "unchanged"
    assert verdicts[("live_tracking", "tick_p75_ms")] == "missing"
    _, records = compare(bench_spec, parent, noisy)
    verdicts = {(r["workload"], r["metric"]): r["verdict"] for r in records}
    assert verdicts[("live_tracking", "tick_p50_ms")] == "unresolved"
    assert run.main(["compare", "--parent", *parent, "--change", *same]) == 0
    assert run.main(["compare", "--parent", *parent, "--change", *slow]) == 1


def test_run_fails_without_the_repository_sources(tmp_path):
    bench_dir = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench_dir, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "live_tracking",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
