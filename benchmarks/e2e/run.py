#!/usr/bin/env python3
"""End-to-end tracking and query benchmark (see README.md in this directory).

Run from the repository root:

    python3 benchmarks/e2e/run.py --seed 7 [--workloads a,b] [--out FILE]
        every workload (or the listed ones), each as an untraced and a
        traced run in a fresh interpreter; prints every metric and exits
        non-zero on any correctness violation

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
        one run; the last stdout line is the JSON result

    python3 benchmarks/e2e/run.py compare --parent P.json [...] --change C.json [...]
        verdicts per (metric, workload); exits 1 if any is worse
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
ACCURACY_BANDS = os.path.join(HERE, "accuracy_bands.json")
OUT_DIR = os.path.join(HERE, "out")

#: Minimum share of traced op time the layer spans must explain.
MIN_COVERAGE = 0.90

RESULT_FORMAT = "repro-e2e-result"


def _load_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _write_json(path: str, document: Any) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _require_sources() -> bool:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the repro sources are missing ({SRC}/repro); "
              "run from a full checkout of the repository", file=sys.stderr)
        return False
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    return True


def accuracy_problems(detail: Dict[str, Any], bands: Dict[str, Any]) -> List[str]:
    """Accuracy metrics outside the band recorded for the workload."""
    problems = []
    for name, (low, high) in sorted(bands.get(detail["workload"], {}).items()):
        value = detail["metrics"][name]["value"]
        if not low <= value <= high:
            problems.append(f"{name} {value:.4f} outside its recorded band [{low}, {high}]")
    return problems


def format_metrics(detail: Dict[str, Any]) -> List[str]:
    workload = detail["workload"]
    lines = [
        f"{workload:18} {name:30} {metric['value']:14.4f} {metric['unit']:10} "
        f"n={metric['samples']}"
        for name, metric in detail["metrics"].items()
    ]
    lines += [f"{workload:18} {name:30} {value:14.4f} ms         (reported, not gated)"
              for name, value in (detail.get("latency") or {}).items()]
    slo = detail.get("slo")
    if slo:
        verdict = "met" if slo["met"] else "MISSED"
        lines.append(f"{workload:18} SLO: measured tick p90 {slo['tick_p90_ms']:.1f} ms "
                     f"< {slo['limit_ms']:.0f} ms {verdict}")
    return lines


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run_one(args: argparse.Namespace) -> int:
    from workloads import run_workload

    trace_path = None
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          trace_path=trace_path)
    if trace_path:
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    if not args.trace:
        detail["problems"] += accuracy_problems(detail, _load_json(ACCURACY_BANDS)["bands"])
        detail["correct"] = not detail["problems"]
    for problem in detail["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for line in format_metrics(detail):
        print(line)
    print(f"{detail['workload']:18} digest {detail['digest']} over "
          f"{detail['units']} measured ticks")
    if args.out:
        _write_json(args.out, detail)
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in detail["metrics"].items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# the suite: every workload, untraced and traced, in fresh interpreters
# ----------------------------------------------------------------------
def _child(workload: str, seed: int, seconds: int, trace: int) -> Optional[Dict[str, Any]]:
    os.makedirs(OUT_DIR, exist_ok=True)
    handle, path = tempfile.mkstemp(prefix=f"{workload}-", suffix=".json", dir=OUT_DIR)
    os.close(handle)
    try:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--out", path]
        completed = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900,
                                   check=False)
        if completed.returncode != 0:
            return None
        return _load_json(path)
    finally:
        os.remove(path)


def suite_violations(name: str, entry: Dict[str, Any]) -> List[str]:
    untraced, traced = entry.get("untraced"), entry.get("traced")
    if untraced is None or traced is None:
        return [f"{name}: a run did not finish"]
    violations = [f"{name}: {problem}"
                  for run in (untraced, traced) for problem in run["problems"]]
    violations += [f"{name}: {run['failed']} of {run['attempted']} operations failed"
                   for run in (untraced, traced) if run["failed"]]
    if untraced["digest"] != traced["digest"]:
        violations.append(f"{name}: untraced digest {untraced['digest']} != "
                          f"traced digest {traced['digest']}")
    coverage = traced["metrics"]["trace.coverage"]["value"]
    if coverage < MIN_COVERAGE:
        violations.append(f"{name}: trace.coverage {coverage:.3f} < {MIN_COVERAGE}")
    return violations


def run_suite(args: argparse.Namespace) -> int:
    import numpy

    benchmark = _load_json(BENCHMARK)
    known = [w["name"] for w in benchmark["workloads"]]
    names = args.workloads.split(",") if args.workloads else known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"error: unknown workload(s) {unknown}; choose from {known}", file=sys.stderr)
        return 2
    seconds = int(benchmark["run_seconds"])
    document: Dict[str, Any] = {
        "format": RESULT_FORMAT,
        "version": 1,
        "seed": args.seed,
        "run_seconds": seconds,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    violations: List[str] = []
    for name in names:
        entry: Dict[str, Any] = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            detail = _child(name, args.seed, seconds, trace)
            if detail is not None:
                entry[key] = detail
                for line in format_metrics(detail):
                    print(line, flush=True)
        document["workloads"][name] = entry
        if "untraced" in entry:
            print(f"{name:18} digest {entry['untraced']['digest']}", flush=True)
        violations += suite_violations(name, entry)
    if args.out:
        _write_json(args.out, document)
    for violation in violations:
        print(f"VIOLATION: {violation}", file=sys.stderr)
    print("verdict: " + ("FAIL" if violations else "PASS"))
    return 1 if violations else 0


# ----------------------------------------------------------------------
def run_compare(argv: Sequence[str]) -> int:
    from verdicts import compare

    parser = argparse.ArgumentParser(prog="run.py compare",
                                     description="Compare parent and change result files.")
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    args = parser.parse_args(argv)
    lines, records = compare(_load_json(BENCHMARK), args.parent, args.change)
    print("\n".join(lines))
    worse = [r for r in records if r["verdict"] == "worse"]
    unresolved = [r for r in records if r["verdict"] == "unresolved"]
    print(f"\n{len(records)} pairings: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return run_compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seconds", type=float, help="measured wall seconds (with --workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run giving per-layer metrics (with --workload)")
    parser.add_argument("--workloads", help="comma-separated subset for the suite")
    parser.add_argument("--out", help="write the result document here")
    args = parser.parse_args(argv)
    if args.workload is not None and args.seconds is None:
        parser.error("--workload needs --seconds")
    if not _require_sources():
        return 2
    if args.workload is not None:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
