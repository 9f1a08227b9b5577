"""Paired accuracy gate: a parent tree against this one, on the paper's metrics.

``repro experiment gate --parent DIR`` judges a change that moves answer
digests. It runs two accuracy points of the paper's evaluation
(Section 5) in both trees over the same seeds:

* Fig. 11 at 64 particles (the scale's base configuration);
* Fig. 12 at the scale's second object count (400 at standard scale).

Each tree runs in its own interpreter with only its ``src`` on
``PYTHONPATH``, through the one call both trees share
(:func:`repro.sim.experiments.evaluate_accuracy`), so the parent needs
no gate code of its own. A check fails when this tree's median range KL
(lower is better), kNN hit rate (higher is better) or error correlation
(lower is better) is worse than the parent's median by more than the
parent's interquartile range across seeds: a move the parent's own
seed-to-seed spread does not cover.

The error correlation guards the random stream itself: it is the mean
pairwise correlation, across objects, of each object's localization
error (the posterior's expected distance to the true position) sampled
every ``ERROR_STRIDE`` seconds over a separate run of the same world. A
stream that passed on the accuracy medians by being biased the same way
for every object would raise it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.sim.experiments import SCALES, format_rows

#: What each tree's interpreter runs: one JSON line per (point, seed).
WORKER = r"""
import json, sys
import numpy as np
import repro
from repro.sim import Simulation
from repro.sim.experiments import SCALES, evaluate_accuracy


def error_correlation(config, stride):
    sim = Simulation(config, build_symbolic=False)
    anchors = sim.pf_engine.anchor_index
    stamps = list(range(config.warmup_seconds,
                        config.warmup_seconds + config.duration_seconds + 1, stride))
    errors = {}
    for second in stamps:
        sim.run_until(second)
        truth = sim.true_positions()
        table = sim.pf_engine.locations_snapshot(second)
        for obj in table.objects():
            errors.setdefault(obj, []).append(sum(
                p * anchors.anchor(ap).point.distance_to(truth[obj])
                for ap, p in table.distribution_of(obj).items()
            ))
    rows = np.array([row for row in errors.values() if len(row) == len(stamps)])
    rows = rows[rows.std(axis=1) > 0]
    if len(rows) < 2:
        return None
    matrix = np.corrcoef(rows)
    return float(matrix[~np.eye(len(rows), dtype=bool)].mean())


job = json.loads(sys.argv[1])
print(json.dumps({"package": repro.__file__}), flush=True)
base = SCALES[job["scale"]].config
for seed in job["seeds"]:
    for point, overrides in job["points"]:
        config = base.with_overrides(seed=seed, **overrides)
        report = evaluate_accuracy(config, measure_topk=False)
        correlation = error_correlation(config, job["stride"])
        print(json.dumps(
            [point, seed, report.range_kl_pf, report.knn_hit_pf, correlation]
        ), flush=True)
"""

#: The gated metrics: (name, True when lower is better).
METRICS = (("range_kl", True), ("knn_hit", False), ("error_corr", True))

#: Seconds between the localization-error samples of the correlation check.
ERROR_STRIDE = 10

PARENT_PARTICLES = 64


class GateError(RuntimeError):
    """A side of the gate could not run, or ran the wrong tree."""


class Check(NamedTuple):
    """One gated (point, metric) pair."""

    point: str
    metric: str
    parent_median: float
    change_median: float
    parent_iqr: float

    @property
    def worse_by(self) -> float:
        """How far the change's median moved in the metric's bad direction."""
        lower_is_better = dict(METRICS)[self.metric]
        delta = self.change_median - self.parent_median
        return delta if lower_is_better else -delta

    @property
    def passed(self) -> bool:
        return self.worse_by <= self.parent_iqr


def smoke_note(seeds: int, scale: str) -> Optional[str]:
    """The line marking a verdict as a smoke check, or None when it decides.

    With fewer than 10 seeds, or below standard scale, the parent's
    interquartile range is too coarse to decide on: the kNN hit rate's
    is 0.0 at quick scale with 3 seeds, so any drop fails there.
    """
    if seeds >= 10 and scale == "standard":
        return None
    return (
        f"gate: smoke check only ({seeds} seeds, {scale} scale); a decision "
        "needs 10 or more seeds at standard scale"
    )


def gate_points(scale: str, particles: int) -> List[Tuple[str, Dict[str, int]]]:
    """The gated points of ``scale`` for a side running ``particles``."""
    objects = SCALES[scale].sweeps["fig12"][1]
    return [
        ("fig11", {"num_particles": particles}),
        (f"fig12@{objects}", {"num_particles": particles, "num_objects": objects}),
    ]


def _tree_src(tree: Path) -> Path:
    src = tree / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise GateError(f"{tree} has no src/repro package")
    return src.resolve()


def _launch(src: Path, job: dict) -> "subprocess.Popen[str]":
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.Popen(
        [sys.executable, "-c", WORKER, json.dumps(job)],
        cwd=str(src.parent),
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def _collect(
    name: str, src: Path, process: "subprocess.Popen[str]"
) -> Dict[Tuple[str, int], Tuple[float, ...]]:
    out, _ = process.communicate()
    if process.returncode != 0:
        raise GateError(f"the {name} side exited {process.returncode}")
    lines = out.splitlines()
    package = Path(json.loads(lines[0])["package"]).resolve()
    if src not in package.parents:
        raise GateError(f"the {name} side imported {package}, not its tree's {src}")
    values: Dict[Tuple[str, int], Tuple[float, ...]] = {}
    for line in lines[1:]:
        point, seed, *measured = json.loads(line)
        if any(value is None for value in measured):
            raise GateError(f"the {name} side measured nothing at {point}, seed {seed}")
        values[point, seed] = tuple(float(value) for value in measured)
    return values


def run_gate(
    parent: Path,
    change: Path,
    scale: str = "standard",
    seeds: int = 10,
    particles: int = PARENT_PARTICLES,
) -> Tuple[List[Dict[str, object]], List[Check]]:
    """Run both trees on seeds ``1..seeds``; return per-seed rows and checks.

    ``particles`` is this tree's particle count (the parent always runs 64).
    """
    seed_list = list(range(1, seeds + 1))
    sides: Dict[str, Tuple[Path, "subprocess.Popen[str]"]] = {}
    try:
        for name, tree, count in (
            ("parent", parent, PARENT_PARTICLES), ("change", change, particles)
        ):
            src = _tree_src(tree)
            job = {
                "scale": scale,
                "seeds": seed_list,
                "points": gate_points(scale, count),
                "stride": ERROR_STRIDE,
            }
            sides[name] = (src, _launch(src, job))
        results = {name: _collect(name, src, process) for name, (src, process) in sides.items()}
    finally:
        for _, process in sides.values():
            if process.returncode is None:  # a side failed first: stop the other
                process.kill()
                process.communicate()

    rows: List[Dict[str, object]] = []
    checks: List[Check] = []
    for point, _ in gate_points(scale, particles):
        for index, (metric, _) in enumerate(METRICS):
            series = {
                name: np.array([results[name][point, seed][index] for seed in seed_list])
                for name in results
            }
            parent_values = series["parent"]
            checks.append(Check(
                point, metric,
                float(np.median(parent_values)),
                float(np.median(series["change"])),
                float(np.percentile(parent_values, 75) - np.percentile(parent_values, 25)),
            ))
        for seed in seed_list:
            row: Dict[str, object] = {"point": point, "seed": seed}
            for index, (metric, _) in enumerate(METRICS):
                for name in ("parent", "change"):
                    row[f"{name}_{metric}"] = round(results[name][point, seed][index], 4)
            rows.append(row)
    return rows, checks


def render_checks(checks: Sequence[Check]) -> str:
    """The medians, the parent's spread and each check's verdict."""
    return format_rows([
        {
            "point": check.point,
            "metric": check.metric,
            "parent_median": round(check.parent_median, 4),
            "change_median": round(check.change_median, 4),
            "worse_by": round(check.worse_by, 4) + 0.0,  # no "-0.0"
            "parent_iqr": round(check.parent_iqr, 4),
            "verdict": "ok" if check.passed else "FAIL",
        }
        for check in checks
    ])
