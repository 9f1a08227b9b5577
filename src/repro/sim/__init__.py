"""Simulation framework (paper Section 5.1, Figure 8).

Seven components, exactly as the paper's simulator diagram:

* true trace generator (:mod:`repro.sim.trace`),
* raw reading generator (:mod:`repro.sim.readings_sim`),
* particle filter module and symbolic model module (two
  :mod:`repro.queries.engine` engines that differ only in their filter
  backend),
* ground truth query evaluation (:mod:`repro.sim.ground_truth`),
* top-k success and KL divergence / hit rate metrics
  (:mod:`repro.sim.metrics`),

wired together by :class:`repro.sim.simulator.Simulation`, with the
paper's parameter sweeps in :mod:`repro.sim.experiments`.
"""

from repro.sim.objects import MovingObject
from repro.sim.trace import TrueTraceGenerator
from repro.sim.readings_sim import RawReadingGenerator
from repro.sim.ground_truth import true_knn_result, true_range_result
from repro.sim.metrics import (
    kl_divergence,
    knn_hit_rate,
    range_query_kl,
    top_k_success,
)
from repro.sim.simulator import Simulation
from repro.sim.statistics import (
    TrackingStatistics,
    hallway_coverage_fraction,
    staleness_snapshot,
    tracking_statistics,
)
from repro.sim.analysis import (
    ErrorSummary,
    LocalizationSample,
    by_staleness_bucket,
    compare_methods,
    localization_samples,
)
from repro.sim.experiments import (
    AccuracyReport,
    evaluate_accuracy,
    run_backend_comparison,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_figure13,
)

__all__ = [
    "MovingObject",
    "TrueTraceGenerator",
    "RawReadingGenerator",
    "true_range_result",
    "true_knn_result",
    "kl_divergence",
    "range_query_kl",
    "knn_hit_rate",
    "top_k_success",
    "Simulation",
    "TrackingStatistics",
    "tracking_statistics",
    "staleness_snapshot",
    "hallway_coverage_fraction",
    "LocalizationSample",
    "ErrorSummary",
    "localization_samples",
    "by_staleness_bucket",
    "compare_methods",
    "AccuracyReport",
    "evaluate_accuracy",
    "run_backend_comparison",
    "run_figure9",
    "run_figure10",
    "run_figure11",
    "run_figure12",
    "run_figure13",
]
