"""Online accuracy-drift detection over the epoch event stream.

The epoch event recorder (:mod:`repro.obs.events`) already distills each
service tick into a record of cost and accuracy proxies — pre-resample
effective sample size, depletion reseeds,
backpressure, and (when a ``LiveSimSource`` ground truth is wired in)
per-room occupancy error. This module watches those records *online*
and raises alerts when they drift:

* :class:`AlertRule` — one declarative detector: a dotted ``field`` path
  into the epoch record, a ``kind`` (absolute ``above``/``below``
  threshold, or relative ``ewma_drop``/``ewma_rise`` against an
  exponentially weighted baseline of the healthy signal), and a
  severity. Rules are plain data; :func:`builtin_rules` ships the
  defaults and callers can register their own.
* :class:`AlertEngine` — feeds every epoch record through every rule,
  tracks firing/resolved transitions, and surfaces them three ways:
  labeled ``obs.alerts_fired{rule,severity}`` counters plus an
  ``obs.alerts_active`` gauge in the metrics registry, JSONL alert
  events (``repro-alert-events``), and :meth:`AlertEngine.summary` for
  the ``/alerts`` endpoint on the ``MetricsServer``.

EWMA semantics: the baseline updates only on *non-breaching* epochs.
During a breach the baseline is frozen, so a sustained collapse (ESS
pinned near zero after a reader outage) keeps firing instead of being
absorbed into a new "normal". Rules need ``min_samples`` healthy epochs
before they can fire, which keeps cold-start noise out.

Everything here is pure arithmetic over already-recorded state — no
clocks, no RNG — so enabling alerting cannot perturb replay results.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.obs.events import EpochEventWriter

ALERTS_FORMAT = "repro-alert-events"
ALERTS_VERSION = 1

_KINDS = ("above", "below", "ewma_drop", "ewma_rise")
_SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class AlertRule:
    """One declarative drift detector over epoch records.

    ``field`` is a dotted path into the record (``accuracy.ess_mean``);
    epochs where the path resolves to ``None`` or is absent are skipped.

    Kinds:

    * ``above`` / ``below`` — absolute comparison against ``threshold``.
    * ``ewma_drop`` — fire when the value falls below ``factor`` times
      the EWMA baseline of healthy epochs (``factor=0.5``: value halved).
    * ``ewma_rise`` — fire when the value exceeds ``factor`` times the
      baseline (``factor=2.0``: value doubled).
    """

    name: str
    field: str
    kind: str
    severity: str = "warning"
    threshold: float = 0.0
    factor: float = 0.5
    alpha: float = 0.2
    min_samples: int = 5
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"rule {self.name}: unknown kind {self.kind!r}")
        if self.severity not in _SEVERITIES:
            raise ValueError(
                f"rule {self.name}: unknown severity {self.severity!r}"
            )
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"rule {self.name}: alpha must be in (0, 1]")
        if self.min_samples < 1:
            raise ValueError(f"rule {self.name}: min_samples must be >= 1")
        if self.kind in ("ewma_drop", "ewma_rise") and self.factor <= 0.0:
            raise ValueError(f"rule {self.name}: factor must be positive")


def builtin_rules() -> List[AlertRule]:
    """The default detector set (every signal the event log already has)."""
    return [
        AlertRule(
            name="ess_collapse",
            field="accuracy.ess_mean",
            kind="ewma_drop",
            factor=0.5,
            alpha=0.2,
            min_samples=5,
            severity="critical",
            description=(
                "pre-resample effective sample size fell below half its "
                "recent baseline: the particle cloud no longer matches "
                "the observations (reader outage, kidnapped object)"
            ),
        ),
        AlertRule(
            name="depletion_surge",
            field="accuracy.depletion_reseeds",
            kind="above",
            threshold=0.0,
            min_samples=1,
            severity="warning",
            description=(
                "particle depletion reseeds happened this epoch: "
                "the filter lost all plausible hypotheses at least once"
            ),
        ),
        AlertRule(
            name="occupancy_error",
            field="accuracy.occupancy_error_mean",
            kind="above",
            threshold=1.0,
            min_samples=1,
            severity="warning",
            description=(
                "mean per-room occupancy error vs simulation ground "
                "truth exceeds one object"
            ),
        ),
        AlertRule(
            name="epoch_stall",
            field="wall_seconds",
            kind="ewma_rise",
            factor=3.0,
            alpha=0.2,
            min_samples=5,
            severity="warning",
            description="epoch wall time tripled against its baseline",
        ),
        AlertRule(
            name="backpressure",
            field="queue.backpressure_waits",
            kind="above",
            threshold=0.0,
            min_samples=1,
            severity="info",
            description="ingest queue hit backpressure this epoch",
        ),
    ]


def gateway_rules() -> List[AlertRule]:
    """SLO detectors over the gateway coordinator's per-tick records.

    The coordinator feeds one record per collected tick (see
    ``GatewayCoordinator._observe_slo``) with a ``gateway.*`` sub-tree:
    barrier-wait statistics, missing partitions, and the worker-side
    accuracy deltas piggybacked on tick replies.
    """
    return [
        AlertRule(
            name="partition_straggler",
            field="gateway.straggler_ratio",
            kind="above",
            threshold=4.0,
            min_samples=3,
            severity="warning",
            description=(
                "one partition's barrier wait dominates the tick: its "
                "worker is at least 4x slower than the fleet mean"
            ),
        ),
        AlertRule(
            name="barrier_stall",
            field="gateway.barrier_wait_max",
            kind="ewma_rise",
            factor=3.0,
            alpha=0.2,
            min_samples=5,
            severity="warning",
            description=(
                "the slowest partition's barrier wait tripled against "
                "its baseline: fan-in is stalling on a worker"
            ),
        ),
        AlertRule(
            name="partition_dead",
            field="gateway.missing_partitions",
            kind="above",
            threshold=0.0,
            min_samples=1,
            severity="critical",
            description=(
                "a partition contributed no sub-snapshot to this tick: "
                "its worker is dead and the merge is partial"
            ),
        ),
        AlertRule(
            name="worker_ess_collapse",
            field="gateway.worker_ess_collapses",
            kind="above",
            threshold=0.0,
            min_samples=1,
            severity="critical",
            description=(
                "a worker reported effective-sample-size collapses this "
                "tick: some partition's particle clouds degenerated"
            ),
        ),
    ]


def _resolve(record: Mapping[str, object], path: str) -> Optional[float]:
    node: object = record
    for part in path.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


@dataclass
class _RuleState:
    ewma: Optional[float] = None
    samples: int = 0
    firing: bool = False
    fired_count: int = 0
    last_value: Optional[float] = None
    last_tick: Optional[int] = None
    fired_tick: Optional[int] = None


class AlertEngine:
    """Evaluates every rule against every epoch record (thread-safe)."""

    def __init__(
        self,
        rules: Optional[Sequence[AlertRule]] = None,
        writer: Optional[EpochEventWriter] = None,
    ) -> None:
        selected = list(builtin_rules() if rules is None else rules)
        names = [rule.name for rule in selected]
        if len(names) != len(set(names)):
            raise ValueError("duplicate alert rule names")
        self.rules: Tuple[AlertRule, ...] = tuple(selected)
        self.writer = writer
        self._lock = threading.Lock()
        self._states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        self.events_emitted = 0

    # ------------------------------------------------------------------
    def _evaluate(
        self, rule: AlertRule, state: _RuleState, value: float
    ) -> Tuple[bool, Optional[float]]:
        """Return ``(breaching, baseline_used)`` for one observation."""
        if rule.kind == "above":
            state.samples += 1
            return (
                state.samples >= rule.min_samples and value > rule.threshold,
                None,
            )
        if rule.kind == "below":
            state.samples += 1
            return (
                state.samples >= rule.min_samples and value < rule.threshold,
                None,
            )
        # EWMA kinds: warm the baseline on healthy epochs only.
        baseline = state.ewma
        armed = baseline is not None and state.samples >= rule.min_samples
        if rule.kind == "ewma_drop":
            breach = armed and baseline is not None and value < rule.factor * baseline
        else:
            breach = armed and baseline is not None and value > rule.factor * baseline
        if not breach:
            state.ewma = (
                value
                if baseline is None
                else (1.0 - rule.alpha) * baseline + rule.alpha * value
            )
            state.samples += 1
        return breach, baseline

    def _emit(
        self,
        rule: AlertRule,
        state: _RuleState,
        action: str,
        value: float,
        baseline: Optional[float],
        tick: int,
        second: object,
    ) -> Dict[str, object]:
        event: Dict[str, object] = {
            "action": action,
            "rule": rule.name,
            "severity": rule.severity,
            "field": rule.field,
            "kind": rule.kind,
            "tick": tick,
            "second": second,
            "value": round(value, 9),
            "baseline": None if baseline is None else round(baseline, 9),
            "description": rule.description,
        }
        if action == "fired":
            obs.add(
                "obs.alerts_fired",
                labels={"rule": rule.name, "severity": rule.severity},
            )
        if self.writer is not None:
            self.writer.write(event)
        self.events_emitted += 1
        return event

    # ------------------------------------------------------------------
    def observe_epoch(
        self, record: Mapping[str, object]
    ) -> List[Dict[str, object]]:
        """Feed one epoch record through every rule; returns transitions."""
        tick = int(str(record.get("tick") or 0))
        second = record.get("second")
        transitions: List[Dict[str, object]] = []
        with self._lock:
            for rule in self.rules:
                value = _resolve(record, rule.field)
                if value is None:
                    continue
                state = self._states[rule.name]
                breaching, baseline = self._evaluate(rule, state, value)
                state.last_value = value
                state.last_tick = tick
                if breaching and not state.firing:
                    state.firing = True
                    state.fired_count += 1
                    state.fired_tick = tick
                    transitions.append(
                        self._emit(
                            rule, state, "fired", value, baseline, tick, second
                        )
                    )
                elif not breaching and state.firing:
                    state.firing = False
                    state.fired_tick = None
                    transitions.append(
                        self._emit(
                            rule, state, "resolved", value, baseline, tick, second
                        )
                    )
            active = sum(1 for s in self._states.values() if s.firing)
        obs.gauge_set("obs.alerts_active", active)
        return transitions

    # ------------------------------------------------------------------
    def active(self) -> List[Dict[str, object]]:
        """Currently-firing alerts (for dashboards and ``/alerts``)."""
        with self._lock:
            out = []
            for rule in self.rules:
                state = self._states[rule.name]
                if state.firing:
                    out.append(
                        {
                            "rule": rule.name,
                            "severity": rule.severity,
                            "field": rule.field,
                            "since_tick": state.fired_tick,
                            "value": state.last_value,
                            "description": rule.description,
                        }
                    )
            return out

    def summary(self) -> Dict[str, object]:
        """The full ``/alerts`` document: active alerts + per-rule state."""
        with self._lock:
            rules = []
            for rule in self.rules:
                state = self._states[rule.name]
                rules.append(
                    {
                        "rule": rule.name,
                        "severity": rule.severity,
                        "field": rule.field,
                        "kind": rule.kind,
                        "firing": state.firing,
                        "fired_count": state.fired_count,
                        "baseline": (
                            None if state.ewma is None else round(state.ewma, 9)
                        ),
                        "last_value": state.last_value,
                        "last_tick": state.last_tick,
                    }
                )
            active = [r for r in rules if r["firing"]]
        return {
            "format": ALERTS_FORMAT,
            "version": ALERTS_VERSION,
            "active_count": len(active),
            "rules": rules,
        }
