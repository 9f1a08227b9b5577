"""Head-to-head comparison of the pluggable filter backends.

Runs the identical simulated workload under every registered backend
(``particle``, ``symbolic``) and reports, per backend:

* **throughput** — filter runs per second over repeated all-object
  snapshot evaluations (the online service's hot path), and
* **accuracy** — the paper's three metrics (range-query KL divergence,
  kNN hit rate, top-k success) from :func:`run_backend_comparison`.

Both land in the ``--benchmark-json`` artifact via
``benchmark.extra_info["backends"]``, so one JSON document answers "which
estimator is faster and what does that speed cost in accuracy".
"""

from _profiles import observed, profile_config, profile_name, stopwatch
from repro.filters import available_backends
from repro.sim import Simulation
from repro.sim.experiments import format_rows, run_backend_comparison


def _snapshot_throughput(config, backend, rounds=8, gap_seconds=2):
    """Filter runs per second over repeated all-object snapshots."""
    simulation = Simulation(config, build_symbolic=False, filter_backend=backend)
    watch = stopwatch()
    objects_filtered = 0
    for i in range(rounds):
        timestamp = config.warmup_seconds + i * gap_seconds
        simulation.run_until(timestamp)
        with watch:
            table = simulation.pf_engine.locations_snapshot(
                timestamp, rng=simulation.pf_rng
            )
        objects_filtered += len(table.objects())
    return objects_filtered / max(watch.total, 1e-9), watch.total


def test_filter_backend_comparison(benchmark, capsys):
    config = profile_config()
    backends = available_backends()

    def run():
        accuracy = {
            row["backend"]: row for row in run_backend_comparison(config, backends)
        }
        throughput = {}
        for backend in backends:
            runs_per_s, seconds = _snapshot_throughput(config, backend)
            throughput[backend] = {
                "filter_runs_per_s": round(runs_per_s, 1),
                "snapshot_seconds": round(seconds, 3),
            }
        return accuracy, throughput

    with observed(benchmark):
        accuracy, throughput = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        {
            "backend": backend,
            **throughput[backend],
            **{
                k: v
                for k, v in accuracy[backend].items()
                if k not in ("backend", "elapsed_s")
            },
        }
        for backend in backends
    ]
    benchmark.extra_info["backends"] = rows

    with capsys.disabled():
        print()
        print(
            format_rows(
                rows,
                title=(
                    f"Filter backends (profile={profile_name()}): "
                    "throughput and accuracy under one workload"
                ),
            )
        )

    for row in rows:
        assert row["filter_runs_per_s"] > 0
    # The paper's estimator must beat the symbolic baseline on range KL.
    assert accuracy["particle"]["range_kl_pf"] <= accuracy["symbolic"]["range_kl_pf"]
