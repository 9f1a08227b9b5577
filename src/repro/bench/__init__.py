"""Bench digest lock.

A small, deterministic workload suite behind ``repro bench``:
:func:`repro.bench.suite.run_suite` executes a fixed set of seeded
pipeline workloads at one seed and size and records, per workload, an
integer work profile (filter runs, seconds replayed, objects
evaluated, ...) read from the :mod:`repro.obs` registry and a digest
of its answers.

Everything in the document is exact: seeded runs are deterministic, so
any drift is a real behavior change. The tier-1 suite requires the
document to equal the committed ``benchmarks/BENCH_BASELINE.json`` byte
for byte; ``repro bench --out benchmarks/BENCH_BASELINE.json`` re-pins
it after a deliberate change.
"""

from repro.bench.suite import (
    RESULT_FORMAT,
    render_result,
    run_suite,
    write_result,
)

__all__ = [
    "RESULT_FORMAT",
    "render_result",
    "run_suite",
    "write_result",
]
