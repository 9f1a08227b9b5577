"""``run.py compare``: parent-versus-change verdicts from result documents.

Each side is one or more result documents: suite documents written by
``run.py --seed N --out FILE`` or single-run documents written by
``run.py --workload W ... --out FILE``. For every (end-to-end metric,
workload) pair the verdict is judged by the metric's bound and direction
in ``BENCHMARK.json``:

* ``unresolved`` when either side's interquartile spread, as a share of
  its median, exceeds the bound, unless every change run reads better
  than every parent run;
* otherwise ``worse`` / ``better`` when the change's median moved past
  the bound, and ``unchanged`` when it did not.

Per-layer metrics have no bound; they are printed as a delta table next
to the verdicts. The exit code is 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

Runs = Dict[str, Dict[str, List[float]]]  # workload -> metric -> values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """One pairing's verdict; ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(parent), spread(change)) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "better"
        return "unresolved"
    parent_median = quartiles(parent)[1]
    change_median = quartiles(change)[1]
    if parent_median == 0:
        worse_by = 0.0 if change_median == 0 else sign * float("inf")
    else:
        worse_by = sign * (change_median - parent_median) / abs(parent_median)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def _detail_runs(document: dict) -> Iterable[dict]:
    """The single-run documents inside a suite or single-run document."""
    if "workload" in document:
        yield document
        return
    for entry in document.get("workloads", {}).values():
        for key in ("untraced", "traced"):
            if key in entry:
                yield entry[key]


def load_runs(paths: Sequence[str]) -> Tuple[Runs, Runs]:
    """``(end-to-end runs, per-layer runs)`` collected from result files."""
    end_to_end: Runs = {}
    per_layer: Runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        for run in _detail_runs(document):
            target = per_layer if run.get("trace") else end_to_end
            metrics = target.setdefault(run["workload"], {})
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, []).append(float(metric["value"]))
    return end_to_end, per_layer


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}..{q3:.4g}] n={len(values)}"


def compare(benchmark: dict, parent_paths: Sequence[str],
            change_paths: Sequence[str]) -> Tuple[List[str], List[dict]]:
    """Printable lines plus one record per (workload, metric) verdict."""
    parent_e2e, parent_layers = load_runs(parent_paths)
    change_e2e, change_layers = load_runs(change_paths)
    workloads = [w["name"] for w in benchmark["workloads"]]
    lines = [f"{'workload':18} {'metric':15} {'parent':34} {'change':34} "
             f"{'delta':>8} {'bound':>6}  verdict"]
    records = []
    for workload in workloads:
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            parent = parent_e2e.get(workload, {}).get(name)
            change = change_e2e.get(workload, {}).get(name)
            if not parent or not change:
                result, delta = "missing", float("nan")
            else:
                result = verdict(parent, change, spec["better"], float(spec["bound"]))
                base = quartiles(parent)[1]
                delta = (quartiles(change)[1] - base) / abs(base) if base else 0.0
            records.append({"workload": workload, "metric": name, "verdict": result})
            lines.append(
                f"{workload:18} {name:15} {_fmt(parent) if parent else '-':34} "
                f"{_fmt(change) if change else '-':34} {delta:>+8.1%} "
                f"{float(spec['bound']):>6.2f}  {result}"
            )
    lines.append("")
    lines.append(f"{'workload':18} {'per-layer metric':30} {'parent':>12} {'change':>12} "
                 f"{'ratio':>8}")
    for workload in workloads:
        for spec in benchmark["per_layer"]:
            name = spec["name"]
            parent = parent_layers.get(workload, {}).get(name)
            change = change_layers.get(workload, {}).get(name)
            if not parent or not change:
                continue
            p, c = quartiles(parent)[1], quartiles(change)[1]
            if p == 0 and c == 0:
                continue
            ratio = f"{c / p:8.3f}" if p else "     new"
            lines.append(f"{workload:18} {name:30} {p:12.4g} {c:12.4g} {ratio}")
    return lines, records
