"""Parameter sweeps reproducing the paper's Section 5, plus ablations.

Each ``run_figureN`` function sweeps the figure's x-axis parameter and
returns one row per sweep value with the measured metrics, the series
the paper plots:

* Figure 9  — range-query KL divergence vs query window size;
* Figure 10 — kNN average hit rate vs k;
* Figure 11 — KL / hit rate / top-k success vs number of particles;
* Figure 12 — the same three metrics vs number of moving objects;
* Figure 13 — the same three metrics vs reader activation range.

``evaluate_accuracy`` runs one full simulation at one configuration and
measures every requested metric, averaging over query locations and
timestamps exactly like the paper's methodology (Section 5.2: "100 query
windows ... results averaged over 50 different time stamps" — the counts
are configurable to keep the default harness laptop-friendly).

``SUBJECTS`` names everything ``repro experiment`` can run: the five
figures, the filter-backend comparison and six ablations of this
reproduction's design choices. ``SCALES`` names the sampling efforts
they run at (``quick``, ``standard``, ``paper``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.core.resampling import RESAMPLERS
from repro.filters.registry import BackendSpec
from repro.queries.types import KNNQuery, RangeQuery
from repro.sim.ground_truth import true_knn_result, true_range_result
from repro.sim.metrics import knn_hit_rate, mean_of, range_query_kl, top_k_success
from repro.sim.simulator import Simulation


@dataclass
class AccuracyReport:
    """All accuracy metrics of one simulated configuration."""

    config: SimulationConfig
    range_kl_pf: Optional[float] = None
    range_kl_sm: Optional[float] = None
    knn_hit_pf: Optional[float] = None
    knn_hit_sm: Optional[float] = None
    top1_success: Optional[float] = None
    top2_success: Optional[float] = None
    range_query_count: int = 0
    knn_query_count: int = 0
    topk_sample_count: int = 0

    def as_row(self, **extra) -> Dict[str, object]:
        """Flatten into a table row (metrics rounded for printing)."""
        row: Dict[str, object] = dict(extra)
        for name in (
            "range_kl_pf",
            "range_kl_sm",
            "knn_hit_pf",
            "knn_hit_sm",
            "top1_success",
            "top2_success",
        ):
            value = getattr(self, name)
            row[name] = None if value is None else round(value, 4)
        return row


def query_timestamps(config: SimulationConfig) -> List[int]:
    """Evenly spaced evaluation timestamps after warm-up."""
    start = config.warmup_seconds
    end = config.warmup_seconds + config.duration_seconds
    points = np.linspace(start, end, config.num_query_timestamps)
    return sorted(set(int(round(p)) for p in points))


def evaluate_accuracy(
    config: SimulationConfig,
    measure_range: bool = True,
    measure_knn: bool = True,
    measure_topk: bool = True,
    simulation: Optional[Simulation] = None,
    filter_backend: BackendSpec = "particle",
) -> AccuracyReport:
    """Run one simulation and measure the requested metrics.

    The object universe for every metric is the set of objects the
    collector has observed at evaluation time (after warm-up this is all
    objects); ground truth is restricted to the same universe so P and Q
    compare like for like. ``filter_backend`` selects the estimator the
    probabilistic engine runs (it is ignored when an existing
    ``simulation`` is passed in — that simulation's engine is reused).
    """
    sim = (
        simulation
        if simulation is not None
        else Simulation(config, filter_backend=filter_backend)
    )
    report = AccuracyReport(config=config)

    kl_pf: List[Optional[float]] = []
    kl_sm: List[Optional[float]] = []
    hit_pf: List[float] = []
    hit_sm: List[float] = []
    top1: List[bool] = []
    top2: List[bool] = []

    for timestamp in query_timestamps(config):
        with obs.timer("experiment.advance_world"):
            sim.run_until(timestamp)
        positions = sim.true_positions()
        locations = sim.true_locations()
        universe = set(sim.pf_engine.collector.observed_objects())
        if not universe:
            continue

        windows = (
            sim.random_windows(config.num_range_queries) if measure_range else []
        )
        points = (
            sim.random_query_points(config.num_knn_queries) if measure_knn else []
        )

        sim.pf_engine.clear_queries()
        sim.sm_engine.clear_queries()
        range_queries = [
            RangeQuery(f"r{i}", window) for i, window in enumerate(windows)
        ]
        knn_queries = [
            KNNQuery(f"k{i}", point, config.k) for i, point in enumerate(points)
        ]
        for query in range_queries:
            sim.pf_engine.register_range_query(query)
            sim.sm_engine.register_range_query(query)
        for query in knn_queries:
            sim.pf_engine.register_knn_query(query)
            sim.sm_engine.register_knn_query(query)

        with obs.timer("experiment.pf_evaluate"):
            pf_snapshot = sim.pf_engine.evaluate(timestamp, rng=sim.pf_rng)
        with obs.timer("experiment.sm_evaluate"):
            sm_snapshot = sim.sm_engine.evaluate(timestamp)

        known_positions = {
            obj: pos for obj, pos in positions.items() if obj in universe
        }
        known_locations = {
            obj: loc for obj, loc in locations.items() if obj in universe
        }

        for query in range_queries:
            truth = true_range_result(query.window, known_positions)
            kl_pf.append(
                range_query_kl(
                    truth,
                    pf_snapshot.range_results[query.query_id].probabilities,
                    universe,
                    epsilon=config.kl_epsilon,
                )
            )
            kl_sm.append(
                range_query_kl(
                    truth,
                    sm_snapshot.range_results[query.query_id].probabilities,
                    universe,
                    epsilon=config.kl_epsilon,
                )
            )

        for query in knn_queries:
            truth = true_knn_result(query.point, known_locations, sim.graph, config.k)
            if not truth:
                continue
            pf_returned = pf_snapshot.knn_results[query.query_id].objects()
            sm_returned = sm_snapshot.knn_results[query.query_id].top(config.k)
            hit_pf.append(knn_hit_rate(pf_returned, truth))
            hit_sm.append(knn_hit_rate(sm_returned, truth))

        if measure_topk:
            with obs.timer("experiment.topk_snapshot"):
                table = sim.pf_engine.locations_snapshot(
                    timestamp, rng=sim.pf_rng
                )
            for object_id in sorted(universe):
                distribution = table.distribution_of(object_id)
                truth_point = positions[object_id]
                top1.append(
                    top_k_success(
                        distribution, truth_point, sim.anchor_index, 1,
                        tolerance=config.topk_tolerance,
                    )
                )
                top2.append(
                    top_k_success(
                        distribution, truth_point, sim.anchor_index, 2,
                        tolerance=config.topk_tolerance,
                    )
                )

    report.range_kl_pf = mean_of(kl_pf)
    report.range_kl_sm = mean_of(kl_sm)
    report.knn_hit_pf = mean_of(hit_pf) if hit_pf else None
    report.knn_hit_sm = mean_of(hit_sm) if hit_sm else None
    report.top1_success = (sum(top1) / len(top1)) if top1 else None
    report.top2_success = (sum(top2) / len(top2)) if top2 else None
    report.range_query_count = len(kl_pf)
    report.knn_query_count = len(hit_pf)
    report.topk_sample_count = len(top1)
    return report


# ----------------------------------------------------------------------
# figure sweeps
# ----------------------------------------------------------------------
FIGURE9_WINDOW_RATIOS = (0.01, 0.02, 0.03, 0.04, 0.05)
FIGURE10_KS = (2, 3, 4, 5, 6, 7, 8, 9)
FIGURE11_PARTICLES = (2, 4, 8, 16, 32, 64, 128, 256, 512)
FIGURE12_OBJECTS = (200, 400, 600, 800, 1000)
FIGURE13_RANGES = (0.5, 1.0, 1.5, 2.0, 2.5)


def run_figure9(
    config: SimulationConfig = DEFAULT_CONFIG,
    window_ratios: Sequence[float] = FIGURE9_WINDOW_RATIOS,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Figure 9: effects of query window size on range-query KL."""
    rows = []
    for ratio in window_ratios:
        report = evaluate_accuracy(
            config.with_overrides(query_window_ratio=ratio),
            measure_knn=False,
            measure_topk=False,
            filter_backend=filter_backend,
        )
        rows.append(report.as_row(window_ratio=ratio))
    return rows


def run_figure10(
    config: SimulationConfig = DEFAULT_CONFIG,
    ks: Sequence[int] = FIGURE10_KS,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Figure 10: effects of k on kNN average hit rate."""
    rows = []
    for k in ks:
        report = evaluate_accuracy(
            config.with_overrides(k=k),
            measure_range=False,
            measure_topk=False,
            filter_backend=filter_backend,
        )
        rows.append(report.as_row(k=k))
    return rows


def run_figure11(
    config: SimulationConfig = DEFAULT_CONFIG,
    particle_counts: Sequence[int] = FIGURE11_PARTICLES,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Figure 11: effects of the number of particles (all three metrics)."""
    rows = []
    for count in particle_counts:
        report = evaluate_accuracy(
            config.with_overrides(num_particles=count),
            filter_backend=filter_backend,
        )
        rows.append(report.as_row(num_particles=count))
    return rows


def run_figure12(
    config: SimulationConfig = DEFAULT_CONFIG,
    object_counts: Sequence[int] = FIGURE12_OBJECTS,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Figure 12: effects of the number of moving objects."""
    rows = []
    for count in object_counts:
        report = evaluate_accuracy(
            config.with_overrides(num_objects=count),
            filter_backend=filter_backend,
        )
        rows.append(report.as_row(num_objects=count))
    return rows


def run_figure13(
    config: SimulationConfig = DEFAULT_CONFIG,
    activation_ranges: Sequence[float] = FIGURE13_RANGES,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Figure 13: effects of the reader activation range."""
    rows = []
    for activation_range in activation_ranges:
        report = evaluate_accuracy(
            config.with_overrides(activation_range=activation_range),
            filter_backend=filter_backend,
        )
        rows.append(report.as_row(activation_range=activation_range))
    return rows


DEFAULT_COMPARISON_BACKENDS = ("particle", "symbolic")

# All-object snapshots every SNAPSHOT_GAP_SECONDS after warm-up: the
# paper's "queries are frequent" case (Section 4.5), where cached
# particle states pay off.
SNAPSHOT_GAP_SECONDS = 2
CACHE_SNAPSHOT_ROUNDS = 10
THROUGHPUT_SNAPSHOT_ROUNDS = 8


def _timed_snapshots(
    config: SimulationConfig, rounds: int, **simulation_options
) -> Tuple[Simulation, float, int]:
    """Time ``rounds`` all-object snapshots of a fresh simulation.

    Returns the simulation, the seconds spent inside the snapshots and
    the number of objects they filtered.
    """
    simulation = Simulation(config, build_symbolic=False, **simulation_options)
    stopwatch = obs.stopwatch()
    objects_filtered = 0
    for i in range(rounds):
        timestamp = config.warmup_seconds + i * SNAPSHOT_GAP_SECONDS
        simulation.run_until(timestamp)
        with stopwatch:
            table = simulation.pf_engine.locations_snapshot(
                timestamp, rng=simulation.pf_rng
            )
        objects_filtered += len(table.objects())
    return simulation, stopwatch.total, objects_filtered


def run_backend_comparison(
    config: SimulationConfig = DEFAULT_CONFIG,
    backends: Sequence[str] = DEFAULT_COMPARISON_BACKENDS,
) -> List[Dict[str, object]]:
    """Head-to-head accuracy, wall-time and throughput of the filter backends.

    Every backend sees the identical world: the trajectory and reading
    generation are seeded by the config, not by the estimator, so the
    rows differ only in how each backend turns the same readings into
    posteriors. ``elapsed_s`` covers the full evaluation loop (filter
    runs plus query evaluation); ``filter_runs_per_s`` and
    ``snapshot_seconds`` time repeated all-object snapshots, the online
    service's hot path. Times are measured with the observability clock
    so the sweep stays legal inside the CLK-linted simulation package.
    """
    rows = []
    for backend in backends:
        stopwatch = obs.stopwatch()
        with stopwatch:
            report = evaluate_accuracy(config, filter_backend=backend)
        _, seconds, objects_filtered = _timed_snapshots(
            config, THROUGHPUT_SNAPSHOT_ROUNDS, filter_backend=backend
        )
        rows.append(
            report.as_row(
                backend=backend,
                elapsed_s=round(stopwatch.total, 3),
                filter_runs_per_s=round(objects_filtered / max(seconds, 1e-9), 1),
                snapshot_seconds=round(seconds, 3),
            )
        )
    return rows


# ----------------------------------------------------------------------
# ablations of this reproduction's design choices
# ----------------------------------------------------------------------
DOOR_BIASES = (0.1, 0.3, 0.5, 0.7)
DWELL_WINDOWS = ((0.0, 0.0), (2.0, 8.0), (5.0, 15.0), (10.0, 30.0))


def run_cache_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """Particle-state cache (Section 4.5) on and off over repeated snapshots."""
    rows: List[Dict[str, object]] = []
    for use_cache in (True, False):
        simulation, seconds, _ = _timed_snapshots(
            config, CACHE_SNAPSHOT_ROUNDS, use_cache=use_cache
        )
        stats = simulation.pf_engine.cache.stats if use_cache else None
        rows.append(
            {
                "cache": "enabled" if use_cache else "disabled",
                "filter_seconds": round(seconds, 3),
                "hit_rate": None if stats is None else round(stats.hit_rate, 3),
                "hits": None if stats is None else stats.hits,
                "misses": None if stats is None else stats.misses,
            }
        )
    return rows


def run_pruning_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """Query-aware candidate pruning (Section 4.3) on and off.

    Each query timestamp registers one fresh small window and one kNN
    query, and the row counts the objects the filter had to run for.
    """
    rows: List[Dict[str, object]] = []
    for use_pruning in (True, False):
        simulation = Simulation(
            config, use_pruning=use_pruning, build_symbolic=False
        )
        engine = simulation.pf_engine
        stopwatch = obs.stopwatch()
        candidates = 0
        observed = 0
        for timestamp in query_timestamps(config):
            simulation.run_until(timestamp)
            engine.clear_queries()
            engine.register_range_query(
                RangeQuery("r", simulation.random_window(0.01))
            )
            engine.register_knn_query(
                KNNQuery("k", simulation.random_query_point(), config.k)
            )
            with stopwatch:
                snapshot = engine.evaluate(timestamp, rng=simulation.pf_rng)
            candidates += len(snapshot.candidates)
            observed += len(engine.collector.observed_objects())
        rows.append(
            {
                "pruning": "enabled" if use_pruning else "disabled",
                "candidates_filtered": candidates,
                "objects_observed": observed,
                "eval_seconds": round(stopwatch.total, 3),
            }
        )
    return rows


def run_resampling_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """Every resampler of ``RESAMPLERS`` in place of Algorithm 1's systematic one."""
    rows = []
    for name, resampler in RESAMPLERS.items():
        report = evaluate_accuracy(
            config,
            simulation=Simulation(config, resampler=resampler),
            measure_knn=False,
        )
        rows.append(report.as_row(resampler=name))
    return rows


def run_door_bias_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """The particle door-entry probability (the paper's choice is 0.5)."""
    rows = []
    for bias in DOOR_BIASES:
        report = evaluate_accuracy(
            config.with_overrides(door_entry_probability=bias),
            measure_knn=False,
        )
        rows.append(report.as_row(door_entry_probability=bias))
    return rows


def run_dwell_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """Room dwell time in the true traces (the paper's workload has none)."""
    rows = []
    for low, high in DWELL_WINDOWS:
        report = evaluate_accuracy(
            config.with_overrides(min_dwell_seconds=low, max_dwell_seconds=high),
            measure_topk=False,
        )
        rows.append(report.as_row(dwell=f"{low:g}-{high:g}s"))
    return rows


def run_negative_info_ablation(
    config: SimulationConfig = DEFAULT_CONFIG,
) -> List[Dict[str, object]]:
    """Silent seconds as evidence, off (Algorithm 2, the default) and on."""
    rows = []
    for enabled in (False, True):
        report = evaluate_accuracy(
            config.with_overrides(use_negative_information=enabled),
            measure_knn=False,
        )
        rows.append(report.as_row(negative_information=enabled))
    return rows


# ----------------------------------------------------------------------
# what ``repro experiment`` runs, and at which effort
# ----------------------------------------------------------------------
class Scale(NamedTuple):
    """A sampling effort: the base configuration and each figure's sweep."""

    config: SimulationConfig
    sweeps: Dict[str, Sequence]


PAPER_SWEEPS: Dict[str, Sequence] = {
    "fig9": FIGURE9_WINDOW_RATIOS,
    "fig10": FIGURE10_KS,
    "fig11": FIGURE11_PARTICLES,
    "fig12": FIGURE12_OBJECTS,
    "fig13": FIGURE13_RANGES,
}

SCALES: Dict[str, Scale] = {
    # The shape of every figure in minutes: fewer objects, shorter runs,
    # fewer query repetitions and shorter sweeps.
    "quick": Scale(
        DEFAULT_CONFIG.with_overrides(
            num_objects=40,
            duration_seconds=120,
            warmup_seconds=40,
            num_query_timestamps=3,
            num_range_queries=8,
            num_knn_queries=5,
        ),
        {
            "fig9": FIGURE9_WINDOW_RATIOS,
            "fig10": (2, 3, 5, 7, 9),
            "fig11": (2, 8, 32, 64, 256),
            "fig12": (40, 80, 160),
            "fig13": FIGURE13_RANGES,
        },
    ),
    # Table 2's parameters and the paper's sweeps with a trimmed
    # sampling effort: minutes per figure.
    "standard": Scale(
        DEFAULT_CONFIG.with_overrides(
            duration_seconds=180,
            warmup_seconds=60,
            num_query_timestamps=5,
            num_range_queries=12,
            num_knn_queries=6,
        ),
        PAPER_SWEEPS,
    ),
    # The full Section 5 methodology; an hour-plus for all figures.
    "paper": Scale(DEFAULT_CONFIG, PAPER_SWEEPS),
}


class Subject(NamedTuple):
    """One runnable experiment: a printed title and its sweep function."""

    title: str
    run: Callable[..., List[Dict[str, object]]]


SUBJECTS: Dict[str, Subject] = {
    "fig9": Subject("paper Figure 9", run_figure9),
    "fig10": Subject("paper Figure 10", run_figure10),
    "fig11": Subject("paper Figure 11", run_figure11),
    "fig12": Subject("paper Figure 12", run_figure12),
    "fig13": Subject("paper Figure 13", run_figure13),
    "backends": Subject("filter backend comparison", run_backend_comparison),
    "cache": Subject("ablation: particle-state cache", run_cache_ablation),
    "pruning": Subject("ablation: query-aware pruning", run_pruning_ablation),
    "resampling": Subject("ablation: resampling strategy", run_resampling_ablation),
    "door-bias": Subject("ablation: door-entry probability", run_door_bias_ablation),
    "dwell": Subject("ablation: room dwell in the true traces", run_dwell_ablation),
    "negative-info": Subject(
        "ablation: negative information", run_negative_info_ablation
    ),
}


def run_subject(
    name: str,
    scale: Scale,
    config: Optional[SimulationConfig] = None,
    filter_backend: BackendSpec = "particle",
) -> List[Dict[str, object]]:
    """Run one of ``SUBJECTS`` at ``scale``.

    ``config`` replaces the scale's base configuration (the CLI passes
    the scale's config with its overrides applied). Only the figures
    sweep the scale's values and take ``filter_backend``: the backend
    comparison runs every backend, and each ablation studies a part of
    the particle filter.
    """
    config = scale.config if config is None else config
    run = SUBJECTS[name].run
    if name in scale.sweeps:
        return run(config, scale.sweeps[name], filter_backend=filter_backend)
    return run(config)


def format_rows(rows: List[Dict[str, object]], title: str = "") -> str:
    """Render sweep rows as an aligned text table (for bench output)."""
    if not rows:
        return f"{title}\n(no rows)"
    columns = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c))) for r in rows)) for c in columns
    }
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        lines.append(
            "  ".join(str(row.get(c)).ljust(widths[c]) for c in columns)
        )
    return "\n".join(lines)
