"""Standing-query sessions: subscriptions, snapshot reads, delta fan-out.

A *session* is a standing range or kNN query. Every tick, the service
publishes the freshly-built anchor-point table to the session manager,
which re-evaluates all standing queries against it, diffs the results
through :class:`~repro.queries.continuous.ContinuousQueryMonitor`, and
fans the deltas out to subscriber callbacks.

The key serving property: queries are evaluated against a *published,
never-mutated* table (the write path builds a brand-new table each tick
and swaps it in), so reads never block — and are never blocked by — the
filter pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import repro.obs as obs
from repro.floorplan.plan import FloorPlan
from repro.geometry import Point, Rect
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.continuous import ContinuousQueryMonitor, ResultDelta
from repro.queries.engine import TableQueryEngine

DeltaCallback = Callable[[ResultDelta], None]


@dataclass
class Subscription:
    """One standing query and its (optional) delta callback."""

    session_id: str
    kind: str  # "range" | "knn"
    window: Optional[Rect] = None
    point: Optional[Point] = None
    k: Optional[int] = None
    callback: Optional[DeltaCallback] = None
    deltas_delivered: int = 0

    def describe(self) -> str:
        """One-line human-readable form (used by the serve CLI)."""
        if self.kind == "range":
            w = self.window
            assert w is not None
            return (
                f"{self.session_id}: range "
                f"[{w.min_x:.1f},{w.min_y:.1f} - {w.max_x:.1f},{w.max_y:.1f}]"
            )
        p = self.point
        assert p is not None
        return f"{self.session_id}: {self.k}NN at ({p.x:.1f},{p.y:.1f})"


class SessionManager:
    """Registry of standing-query sessions plus their delta pipeline."""

    def __init__(
        self,
        plan: FloorPlan,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        report_threshold: float = 0.05,
        min_change: float = 0.10,
    ) -> None:
        # A table engine runs no filters: each publish swaps in the
        # tick's table and the unmodified monitor answers from it.
        self.engine = TableQueryEngine(plan, graph, anchor_index)
        self.monitor = ContinuousQueryMonitor(
            self.engine,
            report_threshold=report_threshold,
            min_change=min_change,
        )
        self._subscriptions: Dict[str, Subscription] = {}
        self._next_id = 1

    # ------------------------------------------------------------------
    # subscription management
    # ------------------------------------------------------------------
    def _allocate_id(self, session_id: Optional[str], kind: str) -> str:
        if session_id is None:
            session_id = f"session-{kind}-{self._next_id}"
        if session_id in self._subscriptions:
            raise ValueError(f"session id {session_id!r} already subscribed")
        self._next_id += 1
        return session_id

    def subscribe_range(
        self,
        window: Rect,
        callback: Optional[DeltaCallback] = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Open a standing range query; returns its session id."""
        session_id = self._allocate_id(session_id, "range")
        self.monitor.add_range_query(session_id, window)
        self._subscriptions[session_id] = Subscription(
            session_id=session_id, kind="range", window=window, callback=callback
        )
        obs.add("service.sessions_opened")
        return session_id

    def subscribe_knn(
        self,
        point: Point,
        k: int,
        callback: Optional[DeltaCallback] = None,
        session_id: Optional[str] = None,
    ) -> str:
        """Open a standing kNN query; returns its session id."""
        session_id = self._allocate_id(session_id, "knn")
        self.monitor.add_knn_query(session_id, point, k)
        self._subscriptions[session_id] = Subscription(
            session_id=session_id, kind="knn", point=point, k=k, callback=callback
        )
        obs.add("service.sessions_opened")
        return session_id

    def unsubscribe(self, session_id: str) -> bool:
        """Close a session mid-stream; later ticks skip it entirely."""
        subscription = self._subscriptions.pop(session_id, None)
        self.monitor.remove_query(session_id)
        if subscription is not None:
            obs.add("service.sessions_closed")
        return subscription is not None

    def attach_callback(self, session_id: str, callback: DeltaCallback) -> None:
        """(Re)attach a delta callback, e.g. after a checkpoint restore."""
        self._subscriptions[session_id].callback = callback

    def subscriptions(self) -> List[Subscription]:
        """All open subscriptions, in subscription order."""
        return list(self._subscriptions.values())

    def __len__(self) -> int:
        return len(self._subscriptions)

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def publish(self, second: int, table: AnchorObjectTable) -> List[ResultDelta]:
        """Swap in the tick's table, diff all sessions, fan deltas out."""
        self.engine.table = table
        deltas = self.monitor.tick(second)
        fanned_out = 0
        for delta in deltas:
            subscription = self._subscriptions.get(delta.query_id)
            if subscription is None:
                continue
            if not delta.is_empty:
                subscription.deltas_delivered += 1
                fanned_out += 1
                if subscription.callback is not None:
                    subscription.callback(delta)
        if obs.enabled():
            obs.add("service.deltas_fanned_out", fanned_out)
            obs.gauge_set("service.open_sessions", len(self._subscriptions))
        return deltas

    def current_result(self, session_id: str) -> Dict[str, float]:
        """The last published result of one session."""
        return self.monitor.current_result(session_id)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Sessions and monitor diff state, JSON-safe (callbacks excluded)."""
        sessions: List[Dict[str, object]] = []
        for sub in self._subscriptions.values():
            record: Dict[str, object] = {"session_id": sub.session_id, "kind": sub.kind,
                                         "deltas_delivered": sub.deltas_delivered}
            if sub.kind == "range":
                w = sub.window
                assert w is not None
                record["window"] = [w.min_x, w.min_y, w.max_x, w.max_y]
            else:
                p = sub.point
                assert p is not None
                record["point"] = [p.x, p.y]
                record["k"] = sub.k
            sessions.append(record)
        return {
            "next_id": self._next_id,
            "report_threshold": self.monitor.report_threshold,
            "min_change": self.monitor.min_change,
            "monitor": self.monitor.state_dict(),
            "sessions": sessions,
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild sessions and diff state; callbacks must be re-attached."""
        self.engine.clear_queries()
        self._subscriptions.clear()
        self.monitor.report_threshold = float(state["report_threshold"])
        self.monitor.min_change = float(state["min_change"])
        self._next_id = 1
        for record in state["sessions"]:
            session_id = record["session_id"]
            if record["kind"] == "range":
                window = Rect(*record["window"])
                self.subscribe_range(window, session_id=session_id)
            else:
                x, y = record["point"]
                self.subscribe_knn(Point(x, y), int(record["k"]), session_id=session_id)
            self._subscriptions[session_id].deltas_delivered = int(
                record["deltas_delivered"]
            )
        # The monitor's diff baseline must survive the restart, or the
        # first resumed tick would re-report every present object as
        # "entered".
        self.monitor.restore_state(state["monitor"])
        self._next_id = int(state["next_id"])
