"""Indoor spatial query evaluation (paper Sections 4.3 and 4.6).

* :mod:`repro.queries.types` — query and result records;
* :mod:`repro.queries.pruning` — the query-aware optimization module;
* :mod:`repro.queries.range_query` — Algorithm 3 (indoor range query)
  as a compiled :class:`RangePlan` plus a table pass;
* :mod:`repro.queries.knn_query` — Algorithm 4 (indoor kNN query) as a
  compiled :class:`KNNPlan` plus a table pass;
* :mod:`repro.queries.engine` — the full system of paper Figure 3.
"""

from repro.queries.types import KNNQuery, KNNResult, RangeQuery, RangeResult
from repro.queries.pruning import QueryAwareOptimizer, uncertain_region
from repro.queries.range_query import RangePlan, evaluate_range_query
from repro.queries.knn_query import KNNPlan, evaluate_knn_query
from repro.queries.closest_pairs import PairResult, evaluate_closest_pairs
from repro.queries.continuous import ContinuousQueryMonitor, ResultDelta
from repro.queries.density import ZoneDensity, room_densities, zone_densities
from repro.queries.events import (
    And,
    Event,
    EventContext,
    InRoom,
    InZone,
    Near,
    Not,
    Or,
    Together,
)
from repro.queries.engine import EngineSnapshot, IndoorQueryEngine

__all__ = [
    "RangeQuery",
    "KNNQuery",
    "RangeResult",
    "KNNResult",
    "QueryAwareOptimizer",
    "uncertain_region",
    "RangePlan",
    "KNNPlan",
    "evaluate_range_query",
    "evaluate_knn_query",
    "evaluate_closest_pairs",
    "PairResult",
    "ContinuousQueryMonitor",
    "ResultDelta",
    "ZoneDensity",
    "zone_densities",
    "room_densities",
    "Event",
    "EventContext",
    "InZone",
    "InRoom",
    "Near",
    "Together",
    "And",
    "Or",
    "Not",
    "IndoorQueryEngine",
    "EngineSnapshot",
]
