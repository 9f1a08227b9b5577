"""The complete query evaluation system (paper Figure 3).

Wires together the five modules:

1. event-driven raw data collector,
2. query-aware optimization module,
3. filter-based preprocessing module (pluggable estimator),
4. cache management module (optional),
5. query evaluation module (Algorithms 3 and 4).

Raw readings flow in second by second via :meth:`IndoorQueryEngine.ingest_second`;
registered queries are answered at any timestamp via :meth:`evaluate`.
Filtering goes through a :class:`~repro.core.preprocessing.FilterExecutor`,
with the same draw keying the tracking service and the gateway workers
use, so every candidate of one evaluation steps in one lockstep stack.

There is one engine: the location estimator is a
:class:`~repro.filters.base.FilterBackend`, so the paper's symbolic
baseline is ``IndoorQueryEngine(..., filter_backend="symbolic")`` and
shares every other module with the particle filter. The query registry
and the evaluate-over-a-table loop live in :class:`TableQueryEngine`,
which standing-query sessions (:mod:`repro.service.sessions`) use
directly over the service's published table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Union

import repro.obs as obs
from repro.collector.collector import EventDrivenCollector
from repro.collector.historical import HistoricalCollector
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.core.preprocessing import FilterExecutor
from repro.core.resampling import systematic_resample
from repro.filters.registry import BackendSpec
from repro.floorplan.plan import FloorPlan
from repro.geometry import Point, Rect
from repro.graph.anchors import AnchorIndex, build_anchor_index
from repro.graph.walking_graph import WalkingGraph, build_walking_graph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.knn_query import KNNPlan, evaluate_knn_query
from repro.queries.pruning import QueryAwareOptimizer
from repro.queries.range_query import RangePlan, evaluate_range_query
from repro.queries.types import KNNQuery, KNNResult, RangeQuery, RangeResult
from repro.rfid.reader import RFIDReader
from repro.rfid.readings import RawReading
from repro.rng import RngLike


@dataclass
class EngineSnapshot:
    """One evaluation round: candidate set, filtered table, query answers."""

    second: int
    candidates: Set[str]
    table: AnchorObjectTable
    range_results: Dict[str, RangeResult] = field(default_factory=dict)
    knn_results: Dict[str, KNNResult] = field(default_factory=dict)


class TableQueryEngine:
    """Registered range and kNN queries, answered over one anchor table.

    :meth:`evaluate` runs **no** filters: it answers every registered
    query from :attr:`table`, whatever the owner last published there.
    Standing-query sessions publish the tracking service's tick table;
    :class:`IndoorQueryEngine` builds on this class and fills its tables
    by filtering instead.

    Each registered query's geometry is compiled once, at its first
    evaluation, into a :class:`~repro.queries.range_query.RangePlan` or
    :class:`~repro.queries.knn_query.KNNPlan`; later rounds run only the
    table pass. Plans live exactly as long as their query is registered.
    Query-aware pruning reads the kNN plans' distance vectors
    (:meth:`knn_plans`), so a registered kNN query is located, and its
    network distances computed, once.
    """

    def __init__(
        self, plan: FloorPlan, graph: WalkingGraph, anchor_index: AnchorIndex
    ) -> None:
        self.plan = plan
        self.graph = graph
        self.anchor_index = anchor_index
        self.table = AnchorObjectTable()
        self._range_queries: List[RangeQuery] = []
        self._knn_queries: List[KNNQuery] = []
        self._plans: Dict[str, Union[RangePlan, KNNPlan]] = {}

    # ------------------------------------------------------------------
    # query registration
    # ------------------------------------------------------------------
    def register_range_query(self, query: RangeQuery) -> None:
        """Register a range query for the next evaluation round."""
        self._range_queries.append(query)

    def register_knn_query(self, query: KNNQuery) -> None:
        """Register a kNN query for the next evaluation round."""
        self._knn_queries.append(query)

    def clear_queries(self) -> None:
        """Drop all registered queries."""
        self._range_queries.clear()
        self._knn_queries.clear()
        self._plans.clear()

    def unregister_query(self, query_id: str) -> bool:
        """Drop one registered query (range or kNN) by id.

        Returns True when a query was removed. Standing-query sessions
        (:mod:`repro.service.sessions`) rely on this to cancel
        subscriptions without disturbing the other registered queries.
        """
        for queries in (self._range_queries, self._knn_queries):
            for index, query in enumerate(queries):
                if query.query_id == query_id:
                    del queries[index]
                    self._plans.pop(query_id, None)
                    return True
        return False

    @property
    def range_queries(self) -> List[RangeQuery]:
        """Currently registered range queries."""
        return list(self._range_queries)

    @property
    def knn_queries(self) -> List[KNNQuery]:
        """Currently registered kNN queries."""
        return list(self._knn_queries)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def evaluate(self, now: int, rng: RngLike = None) -> EngineSnapshot:
        """Answer every registered query from the published table.

        ``rng`` is accepted and ignored, as by
        :meth:`IndoorQueryEngine.evaluate`: table evaluation draws nothing.
        """
        del rng
        return self._answer(now, set(self.table.objects()), self.table)

    def _answer(
        self, second: int, candidates: Set[str], table: AnchorObjectTable
    ) -> EngineSnapshot:
        """Evaluate every registered query over ``table`` (Algorithms 3, 4)."""
        snapshot = EngineSnapshot(second=second, candidates=candidates, table=table)
        plans = self._plans
        for query in self._range_queries:
            range_plan = plans.get(query.query_id)
            if not isinstance(range_plan, RangePlan) or range_plan.query is not query:
                range_plan = RangePlan.build(query, self.plan, self.anchor_index)
                plans[query.query_id] = range_plan
            snapshot.range_results[query.query_id] = evaluate_range_query(
                query, self.plan, self.anchor_index, table, compiled=range_plan
            )
        for query, knn_plan in zip(self._knn_queries, self.knn_plans()):
            snapshot.knn_results[query.query_id] = evaluate_knn_query(
                query, self.graph, self.anchor_index, table, compiled=knn_plan
            )
        return snapshot

    def knn_plans(self) -> List[KNNPlan]:
        """The plan of each registered kNN query, in order.

        A plan is built at its query's first use, so query-aware pruning
        (which runs before the table pass) and the table pass share it.
        """
        plans = self._plans
        knn_plans: List[KNNPlan] = []
        for query in self._knn_queries:
            knn_plan = plans.get(query.query_id)
            if not isinstance(knn_plan, KNNPlan) or knn_plan.query is not query:
                knn_plan = KNNPlan.build(query, self.graph, self.anchor_index)
                plans[query.query_id] = knn_plan
            knn_plans.append(knn_plan)
        return knn_plans

    def _evaluate_alone(
        self,
        evaluate: Callable[[int], EngineSnapshot],
        second: int,
        range_queries: List[RangeQuery],
        knn_queries: List[KNNQuery],
    ) -> EngineSnapshot:
        """Run ``evaluate`` with only the given queries registered.

        The one-off queries' plans are dropped afterwards; the registered
        queries keep theirs.
        """
        saved = self._range_queries, self._knn_queries, self._plans
        self._range_queries, self._knn_queries = range_queries, knn_queries
        self._plans = {}
        try:
            return evaluate(second)
        finally:
            self._range_queries, self._knn_queries, self._plans = saved


class IndoorQueryEngine(TableQueryEngine):
    """RFID + Bayesian filter indoor spatial query evaluation system.

    ``collector`` builds the engine over an existing collector instead
    of a fresh one (``tag_to_object`` and ``historical`` are then
    unused): engines that share it read one reading stream, ingested
    once by whichever owner feeds it.
    """

    def __init__(
        self,
        plan: FloorPlan,
        readers: Sequence[RFIDReader],
        tag_to_object: Mapping[str, str],
        config: SimulationConfig = DEFAULT_CONFIG,
        graph: Optional[WalkingGraph] = None,
        anchor_index: Optional[AnchorIndex] = None,
        use_cache: bool = True,
        use_pruning: bool = True,
        historical: bool = False,
        resampler=systematic_resample,
        filter_backend: BackendSpec = "particle",
        collector: Optional[EventDrivenCollector] = None,
    ):
        graph = graph if graph is not None else build_walking_graph(plan)
        if anchor_index is None:
            anchor_index = build_anchor_index(graph, config.anchor_spacing)
        super().__init__(plan, graph, anchor_index)
        self.config = config
        self.readers = {r.reader_id: r for r in readers}
        if collector is None:
            collector_cls = HistoricalCollector if historical else EventDrivenCollector
            collector = collector_cls(tag_to_object)
        self.collector = collector
        self.use_pruning = use_pruning
        self.optimizer = QueryAwareOptimizer(
            self.graph, self.anchor_index, self.readers, config
        )
        self.executor = FilterExecutor(
            self.graph,
            self.anchor_index,
            self.readers,
            config,
            use_cache=use_cache,
            resampler=resampler,
            filter_backend=filter_backend,
        )
        self.preprocessing = self.executor.preprocessing
        self.filter_backend = self.executor.filter_backend
        self.cache = self.executor.cache
        self._historical: Optional[FilterExecutor] = None

    # ------------------------------------------------------------------
    # data ingestion
    # ------------------------------------------------------------------
    def ingest_second(self, second: int, raw_readings: Sequence[RawReading]) -> None:
        """Feed one second of raw RFID readings into the collector."""
        self.collector.ingest_second(second, raw_readings)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def step(self, second: int, raw_readings: Sequence[RawReading]) -> EngineSnapshot:
        """One full pipeline tick: ingest one second, then evaluate it.

        This is the per-tick unit the online service layer
        (:mod:`repro.service`) schedules repeatedly; the batch simulator
        drives exactly the same ingest/evaluate code, just from its own
        loop.
        """
        self.ingest_second(second, raw_readings)
        return self.evaluate(second)

    def _candidates(self, collector: EventDrivenCollector, now: int) -> Set[str]:
        """Query-aware pruning, or every observed object when it is off."""
        if self.use_pruning:
            return self.optimizer.candidates(
                collector, now, self._range_queries, knn_plans=self.knn_plans()
            )
        return set(collector.observed_objects())

    def evaluate(self, now: int, rng: RngLike = None) -> EngineSnapshot:
        """Answer every registered query at time ``now``.

        Runs the full Figure-3 pipeline: candidate pruning, filtering
        (with cache reuse), anchor discretization, and query evaluation
        over the resulting ``APtoObjHT`` table. Each candidate's draws are
        keyed by ``(config.seed, object, stepped second)``; ``rng`` is
        accepted and ignored.
        """
        del rng
        with obs.span("engine.evaluate", second=now):
            candidates = self._candidates(self.collector, now)
            with obs.span(
                "engine.filter",
                candidates=len(candidates),
                backend=self.filter_backend.name,
            ):
                table = self.executor.build_table(
                    sorted(candidates), self.collector, now
                )
            with obs.span("engine.query_eval"):
                snapshot = self._answer(now, candidates, table)
            if obs.enabled():
                obs.add("engine.rounds")
                obs.add("engine.range_queries", len(self._range_queries))
                obs.add("engine.knn_queries", len(self._knn_queries))
                obs.add(
                    "engine.queries",
                    len(self._range_queries),
                    labels={"query": "range"},
                )
                obs.add(
                    "engine.queries",
                    len(self._knn_queries),
                    labels={"query": "knn"},
                )
                obs.add("engine.objects_evaluated", len(table.objects()))
        return snapshot

    # ------------------------------------------------------------------
    # historical evaluation (requires historical=True)
    # ------------------------------------------------------------------
    def evaluate_at(self, second: int) -> EngineSnapshot:
        """Answer every registered query *as of* a past second.

        Requires the engine to have been constructed with
        ``historical=True`` (a :class:`HistoricalCollector` keeping full
        reading history). The filters are replayed from the reading
        window that was current at ``second`` on that second's streams;
        the cache is bypassed so live snapshot state is never polluted
        with past states, and a second's answers repeat exactly.
        """
        if not isinstance(self.collector, HistoricalCollector):
            raise TypeError(
                "historical evaluation needs IndoorQueryEngine(historical=True)"
            )
        view = self.collector.as_of_view(second)
        candidates = self._candidates(view, second)
        table = self._historical_executor().build_table(
            sorted(candidates), view, second
        )
        return self._answer(second, candidates, table)

    def range_query_at(self, window: Rect, second: int) -> RangeResult:
        """A single historical range query."""
        query = RangeQuery("adhoc-range-at", window)
        snapshot = self._evaluate_alone(self.evaluate_at, second, [query], [])
        return snapshot.range_results[query.query_id]

    def knn_query_at(self, point: Point, k: int, second: int) -> KNNResult:
        """A single historical kNN query."""
        query = KNNQuery("adhoc-knn-at", point, k)
        snapshot = self._evaluate_alone(self.evaluate_at, second, [], [query])
        return snapshot.knn_results[query.query_id]

    def _historical_executor(self) -> FilterExecutor:
        """A cache-less executor over this engine's backend, for time travel."""
        if self._historical is None:
            self._historical = FilterExecutor(
                self.graph,
                self.anchor_index,
                self.readers,
                self.config,
                use_cache=False,
                filter_backend=self.filter_backend,
            )
        return self._historical

    # ------------------------------------------------------------------
    # one-shot conveniences
    # ------------------------------------------------------------------
    def range_query(self, window: Rect, now: int) -> RangeResult:
        """Answer a single ad-hoc range query at time ``now``."""
        query = RangeQuery("adhoc-range", window)
        snapshot = self._evaluate_alone(self.evaluate, now, [query], [])
        return snapshot.range_results[query.query_id]

    def knn_query(self, point: Point, k: int, now: int) -> KNNResult:
        """Answer a single ad-hoc kNN query at time ``now``."""
        query = KNNQuery("adhoc-knn", point, k)
        snapshot = self._evaluate_alone(self.evaluate, now, [], [query])
        return snapshot.knn_results[query.query_id]

    def locations_snapshot(self, now: int) -> AnchorObjectTable:
        """Filtered location distributions for *all* observed objects.

        Bypasses query-aware pruning; used by the top-k success metric,
        which needs every object's distribution.
        """
        return self.executor.build_table(
            sorted(self.collector.observed_objects()), self.collector, now
        )
