"""Continuous spatial analytics over the tracking service's belief state.

The subsystem ROADMAP item 4 asked for: per-room occupancy (expected
count + variance), enter/leave flow rates, dwell-time distributions,
density heatmaps, and top-k busiest regions — folded from each epoch's
published table by :class:`~repro.analytics.engine.AnalyticsEngine`,
checkpointed inside the service's envelope, replayable from the epoch
event log for historical window queries, and scored against simulator
ground truth.
"""

from repro.analytics.accuracy import TruthTracker, accuracy_summary
from repro.analytics.engine import (
    ANALYTICS_STATE_VERSION,
    DEFAULT_FLOW_HYSTERESIS,
    AnalyticsEngine,
    SnapshotLike,
    flow_key,
)
from repro.analytics.regions import HALLWAYS, RegionMap
from repro.analytics.report import render_accuracy, render_summary, render_window
from repro.analytics.streaming import DEFAULT_DWELL_EDGES, StreamingHistogram
from repro.analytics.windows import (
    analytics_epochs,
    dwell_window,
    flow_window,
    occupancy_window,
    window_report,
)

__all__ = [
    "ANALYTICS_STATE_VERSION",
    "AnalyticsEngine",
    "DEFAULT_DWELL_EDGES",
    "DEFAULT_FLOW_HYSTERESIS",
    "HALLWAYS",
    "RegionMap",
    "SnapshotLike",
    "StreamingHistogram",
    "TruthTracker",
    "accuracy_summary",
    "analytics_epochs",
    "dwell_window",
    "flow_key",
    "flow_window",
    "occupancy_window",
    "render_accuracy",
    "render_summary",
    "render_window",
    "window_report",
]
