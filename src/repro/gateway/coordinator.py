"""The gateway coordinator: ingest fan-out, snapshot fan-in, serving.

One :class:`GatewayCoordinator` owns the whole deployment:

* the consistent-hash **ring** mapping every ``(tenant, object)`` to a
  worker partition;
* the worker **handles** (inline or forked; see
  :mod:`repro.gateway.transport`);
* per-tenant **serving state** — the last merged snapshot, the standing
  query sessions, and (optionally) the analytics engine. Queries are
  answered here, at the gateway, from merged snapshots; workers only
  filter.

Write path: :meth:`submit_tick` splits a tenant's second of readings by
ring owner and enqueues one sub-tick per partition — *every* partition,
including ones whose slice is empty, because previously seen objects
keep filtering on quiet seconds. :meth:`collect_tick` barriers on the
sub-snapshots of the oldest outstanding tick, merges them into one
table, publishes the merged snapshot, and fans session deltas out.

Consistency: draws keyed by object and stepped second + disjoint
per-partition object sets + the table's canonical order (every anchor
bucket in ascending object id, whatever order the slices merge in) ⇒
the merged table, and every answer and session delta read from it, is
byte-identical to a single-process :class:`TrackingService` run at any
partition count: query evaluation sums each bucket in that one order.
The tests compare serialized answers at 1, 2, and 4 partitions.

Failure: a dead worker degrades the deployment instead of failing it —
its sub-snapshots stop arriving, ticks complete as *partial* over the
surviving partitions, :meth:`health` reports ``degraded``, and queries
keep answering from what survives. A worker that dies after the
fan-out checked it is handled the same way: its sub-snapshot never
arrives, and the barrier counts it missing.

Fleet telemetry (all off unless observability is on): the coordinator
stamps every fan-out with a ``tenant/second`` trace context that the
workers echo into their tick spans, measures each partition's barrier
wait, feeds a per-tick SLO record into an optional
:class:`~repro.obs.alerts.AlertEngine` (straggler / barrier-stall /
dead-partition / ESS-collapse rules), and — on the process transport —
periodically pulls each worker's metric registry over the pipe
(``telemetry`` op). :meth:`fleet_snapshot` merges those per-worker
registries into one document with a ``partition`` label on every
worker series and a per-process id on every span, which is what
``/metrics`` scrapes and ``--trace`` exports. None of this touches any
RNG, so telemetry on/off cannot change a query answer.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.analytics.engine import AnalyticsEngine
from repro.geometry import Point, Rect
from repro.graph.anchors import AnchorIndex, build_anchor_index
from repro.graph.walking_graph import WalkingGraph, build_walking_graph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.continuous import ResultDelta
from repro.queries.knn_query import evaluate_knn_query
from repro.queries.range_query import evaluate_range_query
from repro.queries.types import KNNQuery, KNNResult, RangeQuery, RangeResult
from repro.rfid.readings import RawReading
from repro.service.ingest import ReadingBatch
from repro.service.sessions import SessionManager
from repro.service.tracking import ServiceSnapshot

from repro.gateway.checkpoint import merge_tenant_states, split_tenant_state
from repro.gateway.partitioning import DEFAULT_VNODES, HashRing
from repro.gateway.tenants import TenantSpec, TenantWorld, validate_tenants
from repro.gateway.transport import (
    DEFAULT_QUEUE_DEPTH,
    GatewayWorkerError,
    make_worker_handles,
)
from repro.gateway.worker import encode_readings


#: Cap on worker spans retained for the merged trace (the tracer's own
#: per-process cap bounds each poll; this bounds the accumulation).
MAX_FLEET_SPANS = 100_000


def _wall() -> float:
    import time

    return time.monotonic()


def _trace_context(tenant_id: str, second: int) -> str:
    """The trace id stamped on a tick's fan-out and echoed by workers."""
    return f"{tenant_id}/{second}"


class GatewayError(RuntimeError):
    """A gateway-level operational failure."""


class GatewayProtocolError(GatewayError):
    """A worker reply that violates the fan-in protocol (FIFO mismatch)."""


@dataclass
class _TenantServing:
    """Gateway-side state of one tenant (never crosses a process)."""

    world: TenantWorld
    graph: WalkingGraph
    anchor_index: AnchorIndex
    sessions: SessionManager
    snapshot: ServiceSnapshot
    analytics: Optional[AnalyticsEngine] = None
    ticks: int = 0
    last_second: Optional[int] = None
    partial_ticks: int = 0


@dataclass
class _PendingTick:
    tenant_id: str
    second: int
    parts: List[int] = field(default_factory=list)


def _merge_slices(second: int, slices: Dict[int, dict]) -> ServiceSnapshot:
    """One tick's snapshot from its partitions' slices (canonical order)."""
    merged = AnchorObjectTable.from_distributions(
        pair for part in slices.values() for pair in part["entries"].items()
    )
    candidates: set = set()
    for part in slices.values():
        candidates.update(part["candidates"])
    return ServiceSnapshot(second=second, table=merged, candidates=frozenset(candidates))


class GatewayCoordinator:
    """Partitioned multi-tenant tracking behind one serving surface."""

    def __init__(
        self,
        tenants: Sequence[TenantSpec],
        num_partitions: int = 2,
        transport: str = "process",
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        vnodes: int = DEFAULT_VNODES,
        report_threshold: float = 0.05,
        min_change: float = 0.10,
        observability: Optional[bool] = None,
        telemetry_interval: int = 8,
    ) -> None:
        specs = validate_tenants(tenants)
        self.num_partitions = num_partitions
        self.transport = transport
        # None means "follow the gateway process": workers inherit the
        # obs switch the coordinator was built under, so `obs.enable()`
        # before construction is all a caller needs for fleet telemetry.
        self.observability = (
            obs.enabled() if observability is None else bool(observability)
        )
        self.telemetry_interval = telemetry_interval
        self.ring = HashRing(num_partitions, vnodes)
        self.tenants: Dict[str, TenantSpec] = {
            spec.tenant_id: spec for spec in specs
        }
        self._serving: Dict[str, _TenantServing] = {}
        for spec in specs:
            world = TenantWorld(spec)
            graph = build_walking_graph(world.plan)
            anchor_index = build_anchor_index(graph, world.config.anchor_spacing)
            self._serving[spec.tenant_id] = _TenantServing(
                world=world,
                graph=graph,
                anchor_index=anchor_index,
                sessions=SessionManager(
                    world.plan,
                    graph,
                    anchor_index,
                    report_threshold=report_threshold,
                    min_change=min_change,
                ),
                snapshot=ServiceSnapshot(second=-1, table=AnchorObjectTable()),
            )
        self.handles = make_worker_handles(
            specs,
            num_partitions,
            transport,
            queue_depth,
            observability=self.observability,
        )
        # One reentrant lock guards serving state and the pending queue;
        # HTTP handler threads read under it while the ingest loop
        # publishes under it.
        self._lock = threading.RLock()
        self._pending: Deque[_PendingTick] = deque()
        # Control round-trips (state/restore/telemetry) must not
        # interleave: each consumes "the next non-snapshot reply" off
        # its handle, so two concurrent callers could swap replies.
        # Always acquired before self._lock, never after (LOCKORDER).
        self._control_lock = threading.Lock()
        # -- fleet-telemetry state (all guarded by the same lock) ------
        self._collected_ticks = 0
        #: partition -> (collect sequence number, second) of its last
        #: contributed sub-snapshot; the health doc derives last-tick
        #: age from the sequence gap, which stays meaningful even when
        #: tenants tick at different rates.
        self._partition_last: Dict[int, Tuple[int, int]] = {}
        self._last_tick_wall: Optional[float] = None
        self._worker_metrics: Dict[int, dict] = {}
        self._worker_spans: List[dict] = []
        self._worker_spans_dropped = 0
        self._ess_prev: Tuple[int, float, int] = (0, 0.0, 0)
        self._alerts: Optional[Any] = None
        self._last_slo: Optional[dict] = None

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def submit_tick(self, tenant_id: str, batch: ReadingBatch) -> None:
        """Fan one tenant-second out to every live partition."""
        self._tenant(tenant_id)  # validate
        split: Dict[int, List[RawReading]] = {
            handle.index: [] for handle in self.handles  # type: ignore[attr-defined]
        }
        for reading in batch.readings:
            split[self.ring.partition_of(tenant_id, reading.tag_id)].append(reading)
        entry = _PendingTick(tenant_id=tenant_id, second=batch.second)
        trace = _trace_context(tenant_id, batch.second)
        with self._lock:
            self._pending.append(entry)
        with obs.span(
            "gateway.fanout", trace=trace, tenant=tenant_id, second=batch.second
        ):
            for handle in self.handles:
                if not handle.alive():  # type: ignore[attr-defined]
                    continue
                message = {
                    "op": "tick",
                    "tenant": tenant_id,
                    "second": batch.second,
                    "readings": encode_readings(split[handle.index]),  # type: ignore[attr-defined]
                }
                if self.observability:
                    message["trace"] = trace
                handle.submit_tick(message)  # type: ignore[attr-defined]
                with self._lock:
                    entry.parts.append(handle.index)  # type: ignore[attr-defined]
        if obs.enabled():
            obs.add(
                "gateway.readings",
                len(batch.readings),
                labels={"tenant": tenant_id},
            )
            obs.add("gateway.subticks", len(entry.parts), labels={"tenant": tenant_id})

    def collect_tick(
        self, timeout: Optional[float] = 30.0
    ) -> Tuple[str, int, List[ResultDelta]]:
        """Barrier on the oldest outstanding tick; publish its merge.

        Returns ``(tenant_id, second, session deltas)``. Partitions that
        died since submit simply stop contributing — the tick completes
        as partial and health turns ``degraded``.
        """
        with self._lock:
            if not self._pending:
                raise GatewayError("no outstanding tick to collect")
            entry = self._pending.popleft()
        trace = _trace_context(entry.tenant_id, entry.second)
        started = _wall()
        replies: Dict[int, dict] = {}
        waits: Dict[int, float] = {}
        missing: List[int] = []
        for index in list(entry.parts):
            wait_start = _wall()
            with obs.span("gateway.barrier_wait", trace=trace, partition=index):
                reply = self.handles[index].next_snapshot(timeout=timeout)  # type: ignore[attr-defined]
            waits[index] = _wall() - wait_start
            if reply is None:
                missing.append(index)
                continue
            if (
                reply.get("tenant") != entry.tenant_id
                or reply.get("second") != entry.second
            ):
                raise GatewayProtocolError(
                    f"partition {index} replied for "
                    f"({reply.get('tenant')!r}, {reply.get('second')!r}) "
                    f"while collecting ({entry.tenant_id!r}, {entry.second})"
                )
            replies[index] = reply
        snapshot = _merge_slices(entry.second, replies)
        merged = snapshot.table
        with self._lock:
            serving = self._serving[entry.tenant_id]
            serving.snapshot = snapshot
            serving.ticks += 1
            serving.last_second = entry.second
            if missing:
                serving.partial_ticks += 1
            deltas = serving.sessions.publish(entry.second, merged)
            if serving.analytics is not None:
                serving.analytics.observe_snapshot(snapshot)
        if obs.enabled():
            labels = {"tenant": entry.tenant_id}
            obs.add("gateway.ticks", labels=labels)
            if missing:
                obs.add("gateway.partial_ticks", labels=labels)
            obs.gauge_set(
                "gateway.tracked_objects", len(merged.objects()), labels=labels
            )
            for index, wait in waits.items():
                obs.observe_seconds(
                    "gateway.barrier_wait_seconds",
                    wait,
                    labels={"partition": index},
                )
        wall = _wall() - started
        with self._lock:
            self._collected_ticks += 1
            sequence = self._collected_ticks
            for index in replies:
                self._partition_last[index] = (sequence, entry.second)
            self._last_tick_wall = wall
        self._observe_slo(entry, replies, waits, missing, wall, sequence)
        if (
            self.observability
            and self.transport == "process"
            and self.telemetry_interval > 0
            and sequence % self.telemetry_interval == 0
        ):
            self.poll_telemetry(timeout=timeout)
        return entry.tenant_id, entry.second, deltas

    def process_batch(
        self, tenant_id: str, batch: ReadingBatch
    ) -> List[ResultDelta]:
        """Submit + collect one tenant-second (the unpipelined path)."""
        self.submit_tick(tenant_id, batch)
        _, _, deltas = self.collect_tick()
        return deltas

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # ------------------------------------------------------------------
    # read path (served from merged snapshots at the gateway)
    # ------------------------------------------------------------------
    def _tenant(self, tenant_id: str) -> _TenantServing:
        serving = self._serving.get(tenant_id)
        if serving is None:
            raise KeyError(f"unknown tenant {tenant_id!r}")
        return serving

    def tenant_ids(self) -> List[str]:
        return list(self._serving)

    def latest_snapshot(self, tenant_id: str) -> ServiceSnapshot:
        with self._lock:
            return self._tenant(tenant_id).snapshot

    def query_range(
        self, tenant_id: str, window: Rect, query_id: str = "gateway-range"
    ) -> RangeResult:
        serving = self._tenant(tenant_id)
        with self._lock:
            snapshot = serving.snapshot
        obs.add("gateway.queries", labels={"tenant": tenant_id, "query": "range"})
        return evaluate_range_query(
            RangeQuery(query_id, window),
            serving.world.plan,
            serving.anchor_index,
            snapshot.table,
        )

    def query_knn(
        self, tenant_id: str, point: Point, k: int, query_id: str = "gateway-knn"
    ) -> KNNResult:
        serving = self._tenant(tenant_id)
        with self._lock:
            snapshot = serving.snapshot
        obs.add("gateway.queries", labels={"tenant": tenant_id, "query": "knn"})
        return evaluate_knn_query(
            KNNQuery(query_id, point, k),
            serving.graph,
            serving.anchor_index,
            snapshot.table,
        )

    # -- standing sessions ---------------------------------------------
    def subscribe_range(
        self, tenant_id: str, window: Rect, session_id: Optional[str] = None
    ) -> str:
        with self._lock:
            return self._tenant(tenant_id).sessions.subscribe_range(
                window, session_id=session_id
            )

    def subscribe_knn(
        self,
        tenant_id: str,
        point: Point,
        k: int,
        session_id: Optional[str] = None,
    ) -> str:
        with self._lock:
            return self._tenant(tenant_id).sessions.subscribe_knn(
                point, k, session_id=session_id
            )

    def unsubscribe(self, tenant_id: str, session_id: str) -> bool:
        with self._lock:
            return self._tenant(tenant_id).sessions.unsubscribe(session_id)

    def session_result(self, tenant_id: str, session_id: str) -> Dict[str, float]:
        with self._lock:
            return self._tenant(tenant_id).sessions.current_result(session_id)

    def sessions_info(self, tenant_id: str) -> List[Dict[str, object]]:
        with self._lock:
            subs = self._tenant(tenant_id).sessions.subscriptions()
            return [
                {
                    "session_id": sub.session_id,
                    "kind": sub.kind,
                    "deltas_delivered": sub.deltas_delivered,
                    "description": sub.describe(),
                }
                for sub in subs
            ]

    # -- analytics ------------------------------------------------------
    def enable_analytics(self, tenant_id: Optional[str] = None) -> None:
        """Attach analytics engines (all tenants, or one)."""
        with self._lock:
            targets = [tenant_id] if tenant_id is not None else self.tenant_ids()
            for tid in targets:
                serving = self._tenant(tid)
                if serving.analytics is None:
                    serving.analytics = AnalyticsEngine(
                        serving.world.plan, serving.anchor_index
                    )

    def analytics_summary(self, tenant_id: str) -> Dict[str, object]:
        with self._lock:
            serving = self._tenant(tenant_id)
            if serving.analytics is None:
                raise GatewayError(
                    f"analytics is not enabled for tenant {tenant_id!r}; "
                    "start the gateway with analytics on"
                )
            return serving.analytics.summary()

    # ------------------------------------------------------------------
    # fleet telemetry
    # ------------------------------------------------------------------
    def _observe_slo(
        self,
        entry: _PendingTick,
        replies: Dict[int, dict],
        waits: Dict[int, float],
        missing: List[int],
        wall: float,
        sequence: int,
    ) -> None:
        """Distill one collected tick into an SLO record; feed alerts.

        Counts (missing partitions, ESS collapses) are deterministic;
        the barrier-wait fields are wall-clock-valued and only ever feed
        alerting, never query evaluation. ``sheds`` is retired: it
        counted sub-ticks dropped by the removed ``shed`` queue policy
        and is always 0, kept so that existing readers of the record
        still find it.
        """
        worker_obs = [
            reply["obs"]
            for reply in replies.values()
            if isinstance(reply.get("obs"), dict)
        ]
        collapses: Optional[int] = None
        ess_means: List[float] = []
        if worker_obs:
            collapses = sum(
                int(record.get("ess_collapses") or 0) for record in worker_obs
            )
            ess_means = [
                float(record["ess_mean"])
                for record in worker_obs
                if isinstance(record.get("ess_mean"), (int, float))
            ]
        elif obs.enabled():
            # Inline cores write into the gateway's own registry, so
            # the per-tick delta is read off directly.
            collapses, mean = self._ess_delta()
            if mean is not None:
                ess_means = [mean]
        # A partition is missing whether it died mid-barrier (in
        # ``missing``) or was already dead at submit and never entered
        # the tick at all — the alert must keep firing either way.
        dead = sum(
            1
            for handle in self.handles
            if not handle.alive()  # type: ignore[attr-defined]
        )
        gateway: Dict[str, object] = {
            "tenant": entry.tenant_id,
            "partitions": len(replies),
            "missing_partitions": max(len(missing), dead),
            "sheds": 0,
            "barrier_wait_max": max(waits.values()) if waits else 0.0,
            "barrier_wait_total": sum(waits.values()) if waits else 0.0,
        }
        if len(waits) > 1:
            mean_wait = sum(waits.values()) / len(waits)
            if mean_wait > 0.0:
                gateway["straggler_ratio"] = max(waits.values()) / mean_wait
        if collapses is not None:
            gateway["worker_ess_collapses"] = collapses
        if ess_means:
            gateway["worker_ess_mean"] = sum(ess_means) / len(ess_means)
        record: Dict[str, object] = {
            "tick": sequence,
            "second": entry.second,
            "wall_seconds": wall,
            "gateway": gateway,
        }
        with self._lock:
            self._last_slo = record
            engine = self._alerts
        if engine is not None:
            engine.observe_epoch(record)

    def _ess_delta(self) -> Tuple[int, Optional[float]]:
        """ESS statistics accrued in this process since the last call."""
        registry = obs.registry()
        count = 0
        total = 0.0
        for series in registry.series_of("filter.ess"):
            if series.get("type") == "histogram":
                count += int(series.get("count", 0))  # type: ignore[arg-type]
                total += float(series.get("total", 0.0))  # type: ignore[arg-type]
        collapses = registry.counter_total("filter.ess_collapses")
        prev_count, prev_total, prev_collapses = self._ess_prev
        self._ess_prev = (count, total, collapses)
        delta_count = count - prev_count
        delta_total = total - prev_total
        mean = delta_total / delta_count if delta_count > 0 else None
        return collapses - prev_collapses, mean

    def last_slo(self) -> Optional[dict]:
        """The most recent per-tick SLO record (None before any tick)."""
        with self._lock:
            return self._last_slo

    def enable_alerts(
        self,
        rules: Optional[Sequence[object]] = None,
        writer: Optional[object] = None,
    ) -> None:
        """Attach an alert engine fed by every collected tick's record."""
        from repro.obs.alerts import AlertEngine, gateway_rules

        with self._lock:
            if self._alerts is None:
                selected = (
                    gateway_rules() if rules is None else list(rules)
                )
                self._alerts = AlertEngine(rules=selected, writer=writer)  # type: ignore[arg-type]

    def alerts_summary(self) -> Dict[str, object]:
        """The ``/alerts`` document (marked disabled when no engine)."""
        with self._lock:
            engine = self._alerts
        if engine is None:
            return {
                "format": "repro-alert-events",
                "version": 1,
                "enabled": False,
                "active_count": 0,
                "rules": [],
            }
        document: Dict[str, object] = engine.summary()
        document["enabled"] = True
        return document

    def poll_telemetry(self, timeout: Optional[float] = 30.0) -> List[int]:
        """Pull each live worker's registry snapshot and fresh spans.

        Process transport only (inline cores share this process's
        registry — federating it would double-count). The poll rides
        the same FIFO pipe as ticks, so it never reorders ahead of
        queued work; a dead or timed-out worker is simply skipped and
        its last cached snapshot keeps serving.
        """
        if self.transport != "process":
            return []
        polled: List[int] = []
        with self._control_lock:
            for handle in self.handles:
                if not handle.alive():  # type: ignore[attr-defined]
                    continue
                try:
                    reply = handle.call({"op": "telemetry"}, timeout=timeout)  # type: ignore[attr-defined]
                except GatewayWorkerError:
                    continue
                if not reply.get("enabled"):
                    continue
                index = int(reply["partition"])
                spans = reply.get("spans") or []
                with self._lock:
                    self._worker_metrics[index] = dict(
                        reply.get("metrics") or {}
                    )
                    for span in spans:
                        record = dict(span)
                        record["process"] = index + 1
                        self._worker_spans.append(record)
                    overflow = len(self._worker_spans) - MAX_FLEET_SPANS
                    if overflow > 0:
                        del self._worker_spans[:overflow]
                        self._worker_spans_dropped += overflow
                polled.append(index)
        return polled

    def fleet_snapshot(
        self, meta: Optional[Dict[str, object]] = None
    ) -> Dict[str, object]:
        """One merged ``repro-trace`` document for the whole deployment.

        Coordinator metrics and spans come from this process's
        registry; every cached worker registry is folded in with a
        ``partition`` label added to each series, and every span gets a
        process id (0 = the gateway, ``partition + 1`` = that worker)
        plus a ``trace.processes`` name map the Chrome exporter turns
        into process rows. Inline transports share the gateway
        registry, so the base snapshot already holds everything and
        nothing is folded in.
        """
        fleet_meta: Dict[str, object] = {
            "gateway_partitions": self.num_partitions,
            "gateway_transport": self.transport,
        }
        if meta:
            fleet_meta.update(meta)
        document = obs.snapshot(meta=fleet_meta)
        metrics = document.get("metrics")
        trace = document.get("trace")
        assert isinstance(metrics, dict) and isinstance(trace, dict)
        with self._lock:
            worker_metrics = dict(sorted(self._worker_metrics.items()))
            worker_spans = [dict(span) for span in self._worker_spans]
            spans_dropped = self._worker_spans_dropped
        spans = trace.setdefault("spans", [])
        assert isinstance(spans, list)
        for span in spans:
            span.setdefault("process", 0)
        processes: Dict[str, str] = {"0": "gateway"}
        for index, snapshot in worker_metrics.items():
            processes[str(index + 1)] = f"partition-{index}"
            for kind in ("counters", "gauges", "histograms"):
                items = snapshot.get(kind) or []
                target = metrics.setdefault(kind, [])
                for item in items:
                    merged = dict(item)
                    labels = dict(merged.get("labels") or {})
                    labels["partition"] = str(index)
                    merged["labels"] = labels
                    target.append(merged)
        for span in worker_spans:
            processes.setdefault(
                str(span.get("process")), f"partition-{int(span['process']) - 1}"
            )
        spans.extend(worker_spans)
        spans.sort(key=lambda span: float(span.get("start") or 0.0))
        trace["processes"] = processes
        trace["dropped"] = int(trace.get("dropped") or 0) + spans_dropped
        for kind in ("counters", "gauges", "histograms"):
            series = metrics.get(kind)
            if isinstance(series, list):
                series.sort(
                    key=lambda item: (
                        str(item.get("name")),
                        sorted((item.get("labels") or {}).items()),
                    )
                )
        return document

    # ------------------------------------------------------------------
    # health / checkpoint support
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """The deployment health document (the ``/healthz`` body).

        Per-partition detail: ``queue_depth`` (messages queued toward
        the worker right now), the ``last_second``
        it contributed a sub-snapshot for, and ``last_tick_age`` — how
        many collected ticks ago that was (0 = contributed to the most
        recent tick; ``null`` = never heard from).
        """
        workers = []
        dead = 0
        with self._lock:
            collected = self._collected_ticks
            partition_last = dict(self._partition_last)
            last_tick_wall = self._last_tick_wall
        for handle in self.handles:
            alive = handle.alive()  # type: ignore[attr-defined]
            if not alive:
                dead += 1
            index = handle.index  # type: ignore[attr-defined]
            last = partition_last.get(index)
            workers.append(
                {
                    "partition": index,
                    "alive": alive,
                    "transport": handle.transport,  # type: ignore[attr-defined]
                    "queue_depth": handle.pending_depth(),  # type: ignore[attr-defined]
                    "last_second": None if last is None else last[1],
                    "last_tick_age": (
                        None if last is None else collected - last[0]
                    ),
                }
            )
        with self._lock:
            tenants = {
                tenant_id: {
                    "ticks": serving.ticks,
                    "last_second": serving.last_second,
                    "partial_ticks": serving.partial_ticks,
                    "open_sessions": len(serving.sessions),
                    "analytics": serving.analytics is not None,
                }
                for tenant_id, serving in self._serving.items()
            }
            pending = len(self._pending)
        degraded = dead > 0 or any(t["partial_ticks"] for t in tenants.values())
        seconds = [t["last_second"] for t in tenants.values()]
        known = [s for s in seconds if isinstance(s, int)]
        return {
            "status": "degraded" if degraded else "ok",
            "partitions": self.num_partitions,
            "dead_partitions": dead,
            "pending_ticks": pending,
            "ticks": collected,
            "last_second": max(known) if known else None,
            "last_tick_seconds": last_tick_wall,
            "workers": workers,
            "tenants": tenants,
        }

    def ready(self) -> bool:
        """Every tenant has published at least one snapshot."""
        with self._lock:
            return all(serving.ticks > 0 for serving in self._serving.values())

    def partition_states(self) -> Dict[int, Dict[str, dict]]:
        """Every live partition's per-tenant service state (for checkpoints).

        Refuses while ticks are outstanding (worker state would run
        ahead of the gateway's session/analytics state) or while any
        partition is dead (its slice of the world would be silently
        dropped from the checkpoint).
        """
        with self._lock:
            if self._pending:
                raise GatewayError(
                    "collect all outstanding ticks before checkpointing"
                )
        states: Dict[int, Dict[str, dict]] = {}
        with self._control_lock:
            for handle in self.handles:
                if not handle.alive():  # type: ignore[attr-defined]
                    raise GatewayError(
                        f"cannot checkpoint: partition {handle.index} is dead"  # type: ignore[attr-defined]
                    )
                reply = handle.call({"op": "state"}, timeout=60.0)  # type: ignore[attr-defined]
                states[handle.index] = reply["tenants"]  # type: ignore[attr-defined]
        return states

    def state_dict(self) -> dict:
        """One coordinated cut of the deployment (the checkpoint state).

        ``services`` holds one :class:`TrackingService` state per
        tenant: the partition slices merged by object id, with the
        gateway's sessions and analytics in their slots — what a
        single-process service resumes from. ``serving`` holds the
        gateway's own tick counters; ``partitions``/``vnodes`` only
        default the ring of a restore.
        """
        slices = self.partition_states()
        with self._lock:
            services: Dict[str, dict] = {}
            for tenant_id, serving in self._serving.items():
                service = merge_tenant_states(
                    [slices[index][tenant_id] for index in sorted(slices)]
                )
                service["sessions"] = serving.sessions.state_dict()
                service["analytics"] = (
                    serving.analytics.state_dict()
                    if serving.analytics is not None
                    else None
                )
                services[tenant_id] = service
            return {
                "partitions": self.num_partitions,
                "vnodes": self.ring.vnodes,
                "tenants": [spec.to_dict() for spec in self.tenants.values()],
                "serving": {
                    tenant_id: {
                        "ticks": serving.ticks,
                        "last_second": serving.last_second,
                        "partial_ticks": serving.partial_ticks,
                    }
                    for tenant_id, serving in self._serving.items()
                },
                "services": services,
            }

    def restore_state(self, state: dict) -> None:
        """Resume from :meth:`state_dict` output along *this* ring.

        Each tenant's service state is split by ring owner and pushed
        to the workers (one call each), so the partition count may
        differ from the one that wrote it; counters, sessions and
        analytics are restored here, at the gateway.
        """
        services: Dict[str, dict] = state["services"]
        slices: Dict[str, Dict[int, dict]] = {tenant_id: {} for tenant_id in services}
        with self._control_lock:
            for handle in self.handles:
                index = handle.index  # type: ignore[attr-defined]
                payload = {
                    tenant_id: split_tenant_state(
                        service,
                        lambda object_id, _tid=tenant_id, _index=index: (
                            self.ring.partition_of(_tid, object_id) == _index
                        ),
                    )
                    for tenant_id, service in services.items()
                }
                try:
                    reply = handle.call({"op": "restore", "tenants": payload}, timeout=60.0)  # type: ignore[attr-defined]
                except GatewayWorkerError as exc:
                    raise GatewayError(
                        f"restore failed on partition {index}: {exc}"
                    ) from exc
                for tenant_id, part in reply["slices"].items():
                    slices[tenant_id][index] = part
        with self._lock:
            for tenant_id, record in state["serving"].items():
                serving = self._tenant(tenant_id)
                serving.ticks = int(record["ticks"])
                last = record["last_second"]
                serving.last_second = None if last is None else int(last)
                serving.partial_ticks = int(record["partial_ticks"])
                if serving.last_second is not None:
                    # Every worker re-published its slice of the saved
                    # tick; merged as a tick is, they serve that tick.
                    serving.snapshot = _merge_slices(
                        serving.last_second, slices[tenant_id]
                    )
                service = services[tenant_id]
                serving.sessions.restore_state(service["sessions"])
                if service["analytics"] is not None:
                    self.enable_analytics(tenant_id)
                    analytics = serving.analytics
                    assert analytics is not None
                    analytics.restore_state(service["analytics"])

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut every worker down (idempotent)."""
        for handle in self.handles:
            handle.close()  # type: ignore[attr-defined]

    def __enter__(self) -> "GatewayCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
