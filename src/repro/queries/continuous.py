"""Continuous query monitoring (paper Section 6, future work).

The paper evaluates snapshot queries and names continuous range and
continuous kNN queries as future work. This module adds them on top of
the query engine: queries stay registered, the monitor re-evaluates them as
simulation time advances, and subscribers receive *deltas* — which
objects entered a result, which left, and whose probability changed
materially — instead of full result sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.geometry import Point, Rect
from repro.queries.types import KNNQuery, RangeQuery


@dataclass
class ResultDelta:
    """Changes of one query's result between two evaluations.

    ``entered`` maps newly-qualified objects to their probability;
    ``left`` lists objects that dropped out; ``updated`` maps objects
    whose probability moved by at least the monitor's ``min_change``.
    """

    query_id: str
    second: int
    entered: Dict[str, float] = field(default_factory=dict)
    left: List[str] = field(default_factory=list)
    updated: Dict[str, float] = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        """True when nothing changed."""
        return not (self.entered or self.left or self.updated)


class ContinuousQueryMonitor:
    """Re-evaluates registered queries over time and emits result deltas.

    Drives any :class:`~repro.queries.engine.TableQueryEngine`: an
    :class:`~repro.queries.engine.IndoorQueryEngine` with any pluggable
    estimator (the symbolic baseline is ``filter_backend="symbolic"``),
    or a table engine answering from a published table (the service's
    standing-query sessions).

    ``report_threshold`` is the probability below which an object is not
    considered part of a result at all; ``min_change`` is the minimum
    probability movement that is worth reporting for an object already in
    the result.
    """

    def __init__(
        self,
        engine,
        report_threshold: float = 0.05,
        min_change: float = 0.10,
    ):
        if not 0.0 <= report_threshold < 1.0:
            raise ValueError("report_threshold must be in [0, 1)")
        if min_change < 0.0:
            raise ValueError("min_change must be non-negative")
        self.engine = engine
        self.report_threshold = report_threshold
        self.min_change = min_change
        self._last_results: Dict[str, Dict[str, float]] = {}
        self._last_second: Optional[int] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_range_query(self, query_id: str, window: Rect) -> None:
        """Start monitoring a range query."""
        self.engine.register_range_query(RangeQuery(query_id, window))
        self._last_results.setdefault(query_id, {})

    def add_knn_query(self, query_id: str, point: Point, k: int) -> None:
        """Start monitoring a kNN query."""
        self.engine.register_knn_query(KNNQuery(query_id, point, k))
        self._last_results.setdefault(query_id, {})

    def monitored_queries(self) -> List[str]:
        """Ids of all monitored queries."""
        return list(self._last_results.keys())

    def remove_query(self, query_id: str) -> bool:
        """Stop monitoring a query mid-stream.

        Unregisters it from the engine and drops its diff state, so a
        re-added query with the same id starts fresh (everything present
        reports as ``entered`` again). Returns True when the query was
        being monitored.
        """
        self.engine.unregister_query(query_id)
        return self._last_results.pop(query_id, None) is not None

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def tick(self, now: int) -> List[ResultDelta]:
        """Evaluate all monitored queries at ``now`` and diff the results.

        Returns one (possibly empty) delta per monitored query. Seconds
        must be non-decreasing across ticks.
        """
        if self._last_second is not None and now < self._last_second:
            raise ValueError(
                f"tick at {now} precedes previous tick at {self._last_second}"
            )
        self._last_second = now
        snapshot = self.engine.evaluate(now)

        deltas: List[ResultDelta] = []
        results: Dict[str, Dict[str, float]] = {}
        for query_id, result in snapshot.range_results.items():
            results[query_id] = result.probabilities
        for query_id, result in snapshot.knn_results.items():
            results[query_id] = result.probabilities

        for query_id, probabilities in results.items():
            current = {
                obj: p for obj, p in probabilities.items()
                if p >= self.report_threshold
            }
            previous = self._last_results.get(query_id, {})
            delta = ResultDelta(query_id=query_id, second=now)
            for obj, p in current.items():
                if obj not in previous:
                    delta.entered[obj] = p
                elif abs(p - previous[obj]) >= self.min_change:
                    delta.updated[obj] = p
            delta.left = sorted(obj for obj in previous if obj not in current)
            self._last_results[query_id] = current
            deltas.append(delta)
        return deltas

    def current_result(self, query_id: str) -> Dict[str, float]:
        """The last reported result of a monitored query."""
        return dict(self._last_results.get(query_id, {}))

    # ------------------------------------------------------------------
    # checkpoint support (repro.service.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The monitor's diff baseline as a JSON-safe dict."""
        return {
            "last_second": self._last_second,
            "last_results": {
                query_id: dict(results)
                for query_id, results in self._last_results.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore the diff baseline saved by :meth:`state_dict`.

        Without this, the first tick after a warm restart would re-report
        every object already in a result as freshly ``entered``.
        """
        last = state["last_second"]
        self._last_second = None if last is None else int(last)
        self._last_results = {
            query_id: {obj: float(p) for obj, p in results.items()}
            for query_id, results in state["last_results"].items()
        }
