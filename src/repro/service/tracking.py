"""The online tracking service: write path, read path, state.

:class:`TrackingService` owns the full online pipeline state — the
event-driven collector, the filter executor, and the standing query
sessions — and exposes:

* the **write path**: :meth:`process_batch`, one epoch tick (ingest one
  second of readings, step every tracked object's filter in one serial
  loop, publish the fresh ``APtoObjHT`` snapshot, fan deltas out to
  sessions);
* the **read path**: :meth:`query_range` / :meth:`query_knn` / standing
  sessions — all answered from the last *published* snapshot, a table
  that is never mutated after publication, so reads are lock-free and
  never stall the write path;
* **checkpointing**: :meth:`state_dict` / :meth:`restore_state` capture
  everything needed to resume tick-for-tick after a crash (collector
  retention, sessions, diff baselines); filter states are replayed, not
  saved.

Unknown tags default to *identity registration* (the tag id is the
object id), matching how a real deployment treats never-seen-before
badges; pass an explicit ``tag_to_object`` mapping to rename.

One service filters its objects in one process; scale-out is the
gateway's job (:mod:`repro.gateway` partitions objects across worker
processes, each running one service over its slice).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro import __version__
from repro.analytics.engine import DEFAULT_FLOW_HYSTERESIS, AnalyticsEngine
from repro.analytics.streaming import DEFAULT_DWELL_EDGES
from repro.collector.collector import EventDrivenCollector
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.core.preprocessing import FilterExecutor
from repro.floorplan.plan import FloorPlan
from repro.floorplan.presets import paper_office_plan
from repro.geometry import Point, Rect
from repro.graph.anchors import build_anchor_index
from repro.graph.walking_graph import build_walking_graph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.continuous import ResultDelta
from repro.queries.pruning import QueryAwareOptimizer
from repro.queries.types import KNNQuery, KNNResult, RangeQuery, RangeResult
from repro.queries.knn_query import evaluate_knn_query
from repro.queries.range_query import evaluate_range_query
from repro.rfid.deployment import deploy_readers_uniform
from repro.rfid.reader import RFIDReader
from repro.filters.registry import BackendSpec
from repro.service.ingest import ReadingBatch
from repro.service.sessions import SessionManager


@dataclass(frozen=True)
class ServiceSnapshot:
    """One published tick: the second it covers and its anchor table.

    Published snapshots are immutable by convention: the write path
    builds a brand-new table every tick and swaps the reference, so any
    reader holding an old snapshot keeps a consistent view for free.
    """

    second: int
    table: AnchorObjectTable
    candidates: frozenset = field(default_factory=frozenset)


class TrackingService:
    """Continuously-updated indoor tracking with standing-query serving."""

    def __init__(
        self,
        config: SimulationConfig = DEFAULT_CONFIG,
        plan: Optional[FloorPlan] = None,
        readers: Optional[Sequence[RFIDReader]] = None,
        tag_to_object: Optional[Dict[str, str]] = None,
        use_cache: bool = True,
        use_pruning: bool = False,
        seed: Optional[int] = None,
        report_threshold: float = 0.05,
        min_change: float = 0.10,
        filter_backend: BackendSpec = "particle",
    ) -> None:
        self.config = config
        if config.observability and not obs.enabled():
            obs.enable(fresh=False)
        self.plan = plan if plan is not None else paper_office_plan()
        self.graph = build_walking_graph(self.plan)
        self.anchor_index = build_anchor_index(self.graph, config.anchor_spacing)
        self.readers = (
            list(readers)
            if readers is not None
            else deploy_readers_uniform(
                self.plan, config.num_readers, config.activation_range
            )
        )
        self.seed = seed if seed is not None else config.seed
        self._identity_tags = tag_to_object is None
        self.collector = EventDrivenCollector(tag_to_object or {})
        self.executor = FilterExecutor(
            self.graph,
            self.anchor_index,
            self.readers,
            config,
            use_cache=use_cache,
            seed=self.seed,
            filter_backend=filter_backend,
        )
        self.use_pruning = use_pruning
        self.optimizer = QueryAwareOptimizer(
            self.graph,
            self.anchor_index,
            {r.reader_id: r for r in self.readers},
            config,
        )
        self.sessions = SessionManager(
            self.plan,
            self.graph,
            self.anchor_index,
            report_threshold=report_threshold,
            min_change=min_change,
        )
        self.ticks = 0
        self.last_second: Optional[int] = None
        self._snapshot = ServiceSnapshot(second=-1, table=AnchorObjectTable())
        self.analytics: Optional[AnalyticsEngine] = None

    def enable_analytics(
        self,
        dwell_edges: Sequence[float] = DEFAULT_DWELL_EDGES,
        flow_hysteresis: int = DEFAULT_FLOW_HYSTERESIS,
    ) -> AnalyticsEngine:
        """Attach (or return) the standing analytics session.

        Once attached, every published snapshot folds into the engine's
        incremental aggregates on the write path, and the engine's state
        rides inside this service's checkpoints.
        """
        if self.analytics is None:
            self.analytics = AnalyticsEngine(
                self.plan,
                self.anchor_index,
                dwell_edges=dwell_edges,
                flow_hysteresis=flow_hysteresis,
            )
        return self.analytics

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def process_batch(self, batch: ReadingBatch) -> List[ResultDelta]:
        """One epoch tick; returns the session deltas it produced."""
        with obs.span("service.tick", second=batch.second):
            if self._identity_tags:
                self._register_unknown_tags(batch)
            self.collector.ingest_second(batch.second, batch.readings)
            self._snapshot = self._filter_tick(batch.second)
            table = self._snapshot.table
            deltas = self.sessions.publish(batch.second, table)
            if self.analytics is not None:
                self.analytics.observe_snapshot(self._snapshot)
            self.ticks += 1
            self.last_second = batch.second
            if obs.enabled():
                obs.gauge_set("service.tracked_objects", len(table.objects()))
        return deltas

    def _filter_tick(self, second: int) -> ServiceSnapshot:
        """Prune (when on) and filter the collector's objects at ``second``."""
        if self.use_pruning:
            engine = self.sessions.engine
            candidates = self.optimizer.candidates(
                self.collector,
                second,
                engine.range_queries,
                knn_plans=engine.knn_plans(),
            )
        else:
            candidates = set(self.collector.observed_objects())
        with obs.timer(
            "service.filter_tick",
            labels={"backend": self.executor.filter_backend.name},
        ):
            table = self.executor.build_table(
                sorted(candidates), self.collector, second
            )
        return ServiceSnapshot(
            second=second, table=table, candidates=frozenset(candidates)
        )

    def _register_unknown_tags(self, batch: ReadingBatch) -> None:
        new_tags = {
            reading.tag_id: reading.tag_id
            for reading in batch.readings
            if not self.collector.knows_tag(reading.tag_id)
        }
        if new_tags:
            self.collector.register_tags(new_tags)

    # ------------------------------------------------------------------
    # read path (all lock-free: served from the published snapshot)
    # ------------------------------------------------------------------
    def snapshot(self) -> ServiceSnapshot:
        """The latest published snapshot (second == -1 before first tick)."""
        return self._snapshot

    def query_range(self, window: Rect, query_id: str = "adhoc-range") -> RangeResult:
        """Ad-hoc range query against the published snapshot (no filtering)."""
        snap = self._snapshot
        obs.add("service.adhoc_queries", labels={"query": "range"})
        return evaluate_range_query(
            RangeQuery(query_id, window), self.plan, self.anchor_index, snap.table
        )

    def query_knn(self, point: Point, k: int, query_id: str = "adhoc-knn") -> KNNResult:
        """Ad-hoc kNN query against the published snapshot (no filtering)."""
        snap = self._snapshot
        obs.add("service.adhoc_queries", labels={"query": "knn"})
        return evaluate_knn_query(
            KNNQuery(query_id, point, k), self.graph, self.anchor_index, snap.table
        )

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Everything a warm restart needs, as one JSON-safe dict."""
        return {
            "version": __version__,
            "seed": self.seed,
            "ticks": self.ticks,
            "last_second": self.last_second,
            "use_pruning": self.use_pruning,
            "identity_tags": self._identity_tags,
            "config": self.config.to_dict(),
            "filter": {"backend": self.executor.filter_backend.name},
            "collector": self.collector.state_dict(),
            "sessions": self.sessions.state_dict(),
            "analytics": (
                self.analytics.state_dict()
                if self.analytics is not None
                else None
            ),
        }

    def restore_state(self, state: dict) -> None:
        """Restore from :meth:`state_dict` output (same world geometry).

        Refuses (with ``CheckpointCompatibilityError``) to load state
        produced by a different filter backend: its sessions and
        analytics were built from another estimator's tables.
        """
        from repro.service.checkpoint import CheckpointCompatibilityError

        recorded = state["filter"]
        backend = self.executor.filter_backend
        if recorded["backend"] != backend.name:
            raise CheckpointCompatibilityError(
                f"checkpoint was produced by filter backend "
                f"{recorded['backend']!r}, but this service runs "
                f"{backend.name!r}; restart with --filter "
                f"{recorded['backend']} or re-create the checkpoint"
            )
        self.seed = int(state["seed"])
        self.executor.seed = self.seed
        self.ticks = int(state["ticks"])
        last = state["last_second"]
        self.last_second = None if last is None else int(last)
        self.use_pruning = bool(state["use_pruning"])
        self._identity_tags = bool(state["identity_tags"])
        self.collector.restore_state(state["collector"])
        if state["sessions"] is not None:
            # None marks a gateway worker slice: sessions live at the gateway.
            self.sessions.restore_state(state["sessions"])
        analytics_state = state.get("analytics")
        if analytics_state is not None:
            # A checkpointed analytics session resumes even if the new
            # process hasn't asked for analytics yet — dropping the
            # aggregates silently would break the bit-exact-resume
            # guarantee.
            self.enable_analytics().restore_state(analytics_state)
        if self.last_second is not None:
            # Re-publish the saved tick's table. The collector is as that
            # tick left it, and every draw is keyed by the stepped
            # second, so replaying each candidate's history gives the
            # table the saved service served and refills the cache.
            self._snapshot = self._filter_tick(self.last_second)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release; kept so every owner closes services alike."""

    def __enter__(self) -> "TrackingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
