"""``repro top`` — a live ANSI terminal dashboard for a running service.

Three layers, each separately testable:

* **State** — :class:`TopState` is one display-ready sample: the latest
  health document, a bounded window of recent epoch records (the same
  shape :class:`~repro.obs.events.EpochEventRecorder` writes), and the
  alert-engine summary.
* **Sources** — :class:`HttpTopSource` polls a running ``repro serve
  --metrics-port`` endpoint (``/healthz`` + ``/snapshot`` + ``/alerts``)
  and synthesizes per-interval epoch records by diffing successive
  snapshots through a writer-less ``EpochEventRecorder``;
  :class:`EventLogTopSource` tails a ``--events`` JSONL file (plus an
  optional alert log), which also works post-mortem.
* **Loop** — :class:`TopLoop` redraws :func:`render_top` every interval.
  The clock and sleep are injected (the CLI passes the real ones), so
  the loop is deterministic under test and this module never reads wall
  time itself — the same clock-hygiene rule (CLK) the rest of
  ``repro.obs`` follows.

Rendering is pure string-building over plain dicts: ANSI is limited to
the clear-screen prefix the loop prepends, so frames are assertable in
tests and the output degrades gracefully when piped to a file.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.obs.events import EpochEventRecorder, read_events

#: Unicode block elements used for sparklines, thinnest to tallest.
SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: ANSI: clear screen + home cursor (prepended to every live frame).
ANSI_CLEAR = "\x1b[2J\x1b[H"

#: How many recent epoch records a source retains for trend displays.
WINDOW = 60


def sparkline(values: Sequence[Optional[float]], width: int = 30) -> str:
    """Render the last ``width`` values as unicode block elements."""
    tail = [v for v in values if v is not None][-width:]
    if not tail:
        return ""
    low, high = min(tail), max(tail)
    span = high - low
    if span <= 0:
        return SPARK_BLOCKS[0] * len(tail)
    out = []
    top = len(SPARK_BLOCKS) - 1
    for value in tail:
        out.append(SPARK_BLOCKS[round((value - low) / span * top)])
    return "".join(out)


def bar(fraction: float, width: int = 20) -> str:
    """A filled proportional bar, clamped to [0, 1]."""
    clamped = min(max(fraction, 0.0), 1.0)
    filled = round(clamped * width)
    return "#" * filled + "." * (width - filled)


class TopState:
    """One display-ready dashboard sample."""

    def __init__(
        self,
        health: Optional[Mapping[str, object]] = None,
        records: Optional[Sequence[Mapping[str, object]]] = None,
        alerts: Optional[Mapping[str, object]] = None,
        analytics: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.health: Dict[str, object] = dict(health or {})
        self.records: List[Dict[str, object]] = [dict(r) for r in records or []]
        self.alerts: Dict[str, object] = dict(alerts or {})
        self.analytics: Dict[str, object] = dict(analytics or {})

    @property
    def last_record(self) -> Optional[Dict[str, object]]:
        return self.records[-1] if self.records else None

    def accuracy_series(self, field: str) -> List[Optional[float]]:
        out: List[Optional[float]] = []
        for record in self.records:
            accuracy = record.get("accuracy")
            value = (
                accuracy.get(field) if isinstance(accuracy, Mapping) else None
            )
            out.append(float(str(value)) if isinstance(value, (int, float)) else None)
        return out

    def wall_series(self) -> List[Optional[float]]:
        out: List[Optional[float]] = []
        for record in self.records:
            value = record.get("wall_seconds")
            out.append(float(str(value)) if isinstance(value, (int, float)) else None)
        return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _fmt(value: object, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _active_alerts(alerts: Mapping[str, object]) -> List[Dict[str, object]]:
    rules = alerts.get("rules")
    if not isinstance(rules, list):
        return []
    return [r for r in rules if isinstance(r, dict) and r.get("firing")]


def _analytics_lines(analytics: Mapping[str, object]) -> List[str]:
    """The occupancy/top-k panel (graceful when data hasn't arrived)."""
    flows = analytics.get("flows")
    flow_events = (
        flows.get("events") if isinstance(flows, Mapping) else None
    )
    lines = [
        f"analytics  epochs={_fmt(analytics.get('epochs'))}   "
        f"updates={_fmt(analytics.get('updates'))}   "
        f"objects={_fmt(analytics.get('objects'))}   "
        f"flow events={_fmt(flow_events)}"
    ]
    top = analytics.get("top_regions")
    rows = [
        row
        for row in (top if isinstance(top, list) else [])
        if isinstance(row, Mapping)
        and isinstance(row.get("expected"), (int, float))
    ]
    if rows:
        peak = max(float(str(row["expected"])) for row in rows)
        for row in rows[:5]:
            expected = float(str(row["expected"]))
            fraction = expected / peak if peak > 0 else 0.0
            lines.append(
                f"  {str(row.get('region')):<14} {bar(fraction)} "
                f"{expected:.2f}"
            )
    else:
        lines.append("  (no occupancy data yet)")
    return lines


def _gateway_lines(health: Mapping[str, object]) -> List[str]:
    """The per-partition panel for a gateway health document."""
    workers = health.get("workers")
    if not isinstance(workers, list) or not workers:
        return []
    lines = [
        f"gateway  partitions={_fmt(health.get('partitions'))}   "
        f"dead={_fmt(health.get('dead_partitions'))}   "
        f"pending={_fmt(health.get('pending_ticks'))}"
    ]
    for worker in workers:
        if not isinstance(worker, Mapping):
            continue
        state = "alive" if worker.get("alive") else "DEAD"
        lines.append(
            f"  p{_fmt(worker.get('partition'))}  {state:<5} "
            f"queue={_fmt(worker.get('queue_depth'))} "
            f"second={_fmt(worker.get('last_second'))} "
            f"age={_fmt(worker.get('last_tick_age'))}"
        )
    tenants = health.get("tenants")
    if isinstance(tenants, Mapping) and tenants:
        rendered = "  ".join(
            f"{tenant_id}:{_fmt(record.get('ticks'))}t"
            + (
                f"/{_fmt(record.get('partial_ticks'))}p"
                if isinstance(record, Mapping) and record.get("partial_ticks")
                else ""
            )
            for tenant_id, record in sorted(tenants.items())
            if isinstance(record, Mapping)
        )
        lines.append(f"  tenants  {rendered}")
    return lines


def render_top(state: TopState, width: int = 80) -> str:
    """Render one dashboard frame (no ANSI, pure text)."""
    health = state.health
    lines: List[str] = []
    rule = "-" * width
    status = str(health.get("status", "?"))
    lines.append(
        f"repro top   status={status}   ticks={_fmt(health.get('ticks'))}   "
        f"second={_fmt(health.get('last_second'))}   "
        f"backend={_fmt(health.get('filter_backend'))}"
    )
    lines.append(
        f"queue {_fmt(health.get('queue_depth'))}/"
        f"{_fmt(health.get('queue_capacity'))}   "
        f"objects={_fmt(health.get('tracked_objects'))}   "
        f"queries={_fmt(health.get('standing_queries'))}   "
        f"checkpoints={_fmt(health.get('checkpoints_written'))}"
    )
    gateway = _gateway_lines(health)
    if gateway:
        lines.append(rule)
        lines.extend(gateway)
    lines.append(rule)

    walls = state.wall_series()
    tail = [w for w in walls if w is not None]
    if tail:
        mean = sum(tail) / len(tail)
        rate = (1.0 / mean) if mean > 0 else float("inf")
        lines.append(
            f"epoch wall  {sparkline(walls)}  "
            f"last={_fmt(tail[-1], 4)}s mean={_fmt(mean, 4)}s "
            f"(~{_fmt(rate, 1)} ticks/s)"
        )

    last = state.last_record
    if last is not None:
        phases = last.get("phases")
        if isinstance(phases, Mapping) and phases:
            numeric = {
                str(k): float(str(v))
                for k, v in phases.items()
                if isinstance(v, (int, float))
            }
            top_value = max(numeric.values()) if numeric else 0.0
            lines.append("phase seconds (last epoch)")
            for name in sorted(numeric, key=lambda n: -numeric[n]):
                fraction = numeric[name] / top_value if top_value > 0 else 0.0
                lines.append(
                    f"  {name:<24} {bar(fraction)} {_fmt(numeric[name], 6)}"
                )
        cache = last.get("cache")
        if isinstance(cache, Mapping):
            lines.append(
                f"cache  hits={_fmt(cache.get('hits'))} "
                f"misses={_fmt(cache.get('misses'))} "
                f"ratio={_fmt(cache.get('hit_ratio'))}"
            )

    ess = state.accuracy_series("ess_mean")
    if any(v is not None for v in ess):
        tail_ess = [v for v in ess if v is not None]
        lines.append(
            f"ESS         {sparkline(ess)}  last={_fmt(tail_ess[-1], 2)}"
        )
    occupancy = state.accuracy_series("occupancy_error_mean")
    if any(v is not None for v in occupancy):
        tail_occ = [v for v in occupancy if v is not None]
        lines.append(
            f"room error  {sparkline(occupancy)}  "
            f"last={_fmt(tail_occ[-1], 3)}"
        )

    if state.analytics:
        lines.append(rule)
        lines.extend(_analytics_lines(state.analytics))

    lines.append(rule)
    firing = _active_alerts(state.alerts)
    if firing:
        lines.append(f"ALERTS ({len(firing)} active)")
        for alert in firing:
            lines.append(
                f"  [{_fmt(alert.get('severity'))}] "
                f"{_fmt(alert.get('rule'))}: "
                f"{_fmt(alert.get('field'))}={_fmt(alert.get('last_value'))}"
            )
    elif state.alerts:
        lines.append("alerts: none firing")
    return "\n".join(line[:width] for line in lines) + "\n"


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class _RemoteRegistry:
    """Duck-typed stand-in for ``MetricsRegistry.snapshot`` over HTTP.

    The HTTP source fetches ``/snapshot`` and stores the ``metrics``
    section here; the writer-less ``EpochEventRecorder`` then diffs
    successive fetches exactly as it would a live registry.
    """

    def __init__(self) -> None:
        self.metrics: Dict[str, List[Dict[str, object]]] = {}

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        return self.metrics


class HttpTopSource:
    """Polls a running ``MetricsServer`` for dashboard state."""

    def __init__(self, base_url: str, timeout: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._registry = _RemoteRegistry()
        # The recorder only ever calls registry.snapshot(), which the
        # remote stand-in provides.
        self._recorder = EpochEventRecorder(
            writer=None,
            registry=self._registry,  # type: ignore[arg-type]
        )
        self._records: List[Dict[str, object]] = []
        self._last_ticks: Optional[int] = None
        self._primed = False

    def _get_json(self, path: str) -> Optional[Dict[str, object]]:
        url = f"{self.base_url}{path}"
        try:
            with urllib.request.urlopen(url, timeout=self.timeout) as response:
                data = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            with exc:  # an error reply holds its socket until closed
                if exc.code == 404:
                    return None
                try:
                    data = json.loads(exc.read().decode("utf-8"))
                except Exception:
                    return None
        except (urllib.error.URLError, OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def poll(self) -> TopState:
        """Fetch health/snapshot/alerts/analytics, fold in one delta record."""
        health = self._get_json("/healthz") or {"status": "unreachable"}
        alerts = self._get_json("/alerts") or {}
        analytics = self._get_json("/analytics") or {}
        snapshot = self._get_json("/snapshot") or {}
        metrics = snapshot.get("metrics")
        ticks_obj = health.get("ticks")
        ticks = int(str(ticks_obj)) if isinstance(ticks_obj, int) else None
        if isinstance(metrics, dict):
            self._registry.metrics = {
                str(k): v for k, v in metrics.items() if isinstance(v, list)
            }
            advanced = (
                ticks is not None
                and self._last_ticks is not None
                and ticks > self._last_ticks
            )
            wall = health.get("last_tick_seconds")
            record = self._recorder.record_epoch(
                second=int(str(health.get("last_second") or 0) or 0),
                tick=ticks if ticks is not None else 0,
                wall_seconds=(
                    float(str(wall)) if isinstance(wall, (int, float)) else 0.0
                ),
            )
            # The first fetch only primes the delta baseline; afterwards
            # keep records for intervals where the service ticked.
            if self._primed and advanced:
                self._records.append(record)
                self._records = self._records[-WINDOW:]
            self._primed = True
        if ticks is not None:
            self._last_ticks = ticks
        return TopState(
            health=health,
            records=self._records,
            alerts=alerts,
            analytics=analytics,
        )


class EventLogTopSource:
    """Tails a ``--events`` JSONL file (works live and post-mortem)."""

    def __init__(
        self, events_path: str, alerts_path: Optional[str] = None
    ) -> None:
        self.events_path = events_path
        self.alerts_path = alerts_path

    def poll(self) -> TopState:
        try:
            _, records = read_events(self.events_path)
        except (OSError, ValueError):
            records = []
        records = records[-WINDOW:]
        last = records[-1] if records else {}
        queue = last.get("queue") if isinstance(last, dict) else None
        health: Dict[str, object] = {
            "status": "log",
            "ticks": last.get("tick") if isinstance(last, dict) else None,
            "last_second": last.get("second") if isinstance(last, dict) else None,
            "queue_depth": (
                queue.get("depth") if isinstance(queue, Mapping) else None
            ),
        }
        alerts: Dict[str, object] = {}
        if self.alerts_path is not None:
            alerts = self._fold_alerts()
        return TopState(
            health=health,
            records=records,
            alerts=alerts,
            analytics=self._fold_analytics(records),
        )

    @staticmethod
    def _fold_analytics(
        records: Sequence[Mapping[str, object]],
    ) -> Dict[str, object]:
        """Synthesize a summary-shaped analytics dict from log records.

        Occupancy comes from the latest record's ``analytics`` section
        (it is a level, not a delta); flow events sum over the retained
        window. Records without analytics sections yield an empty dict,
        which renders as no panel at all.
        """
        sections = [
            record["analytics"]
            for record in records
            if isinstance(record.get("analytics"), Mapping)
        ]
        if not sections:
            return {}
        last = sections[-1]
        assert isinstance(last, Mapping)
        occupancy = last.get("occupancy")
        top: List[Dict[str, object]] = []
        if isinstance(occupancy, Mapping):
            ranked = sorted(
                (
                    (str(region), float(str(occupancy[region])))
                    for region in occupancy
                    if isinstance(occupancy[region], (int, float))
                ),
                key=lambda item: (-item[1], item[0]),
            )
            top = [
                {"region": region, "expected": expected}
                for region, expected in ranked[:5]
            ]
        flow_events = 0
        for section in sections:
            assert isinstance(section, Mapping)
            flows = section.get("flows")
            if isinstance(flows, Mapping):
                flow_events += sum(
                    int(str(flows[edge]))
                    for edge in flows
                    if isinstance(flows[edge], int)
                )
        updates = last.get("updates")
        return {
            "epochs": len(sections),
            "updates": updates,
            "objects": None,
            "flows": {"events": flow_events},
            "top_regions": top,
        }

    def _fold_alerts(self) -> Dict[str, object]:
        """Replay fired/resolved transitions into a summary-shaped dict."""
        assert self.alerts_path is not None
        try:
            _, events = read_events(
                self.alerts_path, fmt="repro-alert-events"
            )
        except (OSError, ValueError):
            return {}
        states: Dict[str, Dict[str, object]] = {}
        for event in events:
            rule = str(event.get("rule"))
            entry = states.setdefault(
                rule,
                {
                    "rule": rule,
                    "severity": event.get("severity"),
                    "field": event.get("field"),
                    "firing": False,
                    "fired_count": 0,
                    "last_value": None,
                    "last_tick": None,
                },
            )
            entry["firing"] = event.get("action") == "fired"
            if event.get("action") == "fired":
                entry["fired_count"] = int(str(entry["fired_count"])) + 1
            entry["last_value"] = event.get("value")
            entry["last_tick"] = event.get("tick")
        rules = [states[rule] for rule in sorted(states)]
        return {
            "active_count": sum(1 for r in rules if r["firing"]),
            "rules": rules,
        }


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class TopLoop:
    """Redraws the dashboard every ``interval`` seconds.

    ``clock``/``sleep`` are injected by the caller (the CLI passes
    ``time.monotonic``/``time.sleep``); this module never reads wall
    time itself. ``frames`` bounds the run (``repro top --frames N`` /
    ``--once``); ``key_reader`` (returning one pending keypress or
    ``None``) maps ``q`` to quit and ``p`` to pause.
    """

    def __init__(
        self,
        source: object,
        clock: Callable[[], float],
        sleep: Callable[[float], None],
        interval: float = 1.0,
        width: int = 100,
        emit: Optional[Callable[[str], None]] = None,
        frames: Optional[int] = None,
        key_reader: Optional[Callable[[], Optional[str]]] = None,
        use_ansi: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.source = source
        self.clock = clock
        self.sleep = sleep
        self.interval = interval
        self.width = width
        self.emit = emit if emit is not None else self._default_emit
        self.frames = frames
        self.key_reader = key_reader
        self.use_ansi = use_ansi
        self.frames_rendered = 0
        self.paused = False

    @staticmethod
    def _default_emit(text: str) -> None:
        print(text, end="", flush=True)

    def _poll(self) -> TopState:
        poll = getattr(self.source, "poll")
        state = poll()
        assert isinstance(state, TopState)
        return state

    def render_frame(self) -> str:
        """One frame's full text (clear-prefix included when live)."""
        frame = render_top(self._poll(), width=self.width)
        return (ANSI_CLEAR + frame) if self.use_ansi else frame

    def run(self) -> int:
        """Loop until ``frames`` frames or a ``q`` keypress; returns frames."""
        while self.frames is None or self.frames_rendered < self.frames:
            if self.key_reader is not None:
                key = self.key_reader()
                if key == "q":
                    break
                if key == "p":
                    self.paused = not self.paused
            if not self.paused:
                self.emit(self.render_frame())
                self.frames_rendered += 1
            if self.frames is not None and self.frames_rendered >= self.frames:
                break
            self.sleep(self.interval)
        return self.frames_rendered
