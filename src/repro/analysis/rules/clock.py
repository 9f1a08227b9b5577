"""CLK — wall-clock reads go through an injectable clock.

Replays, tests, and checkpoint-resume runs must execute the identical
code path with no real time dependence: the scheduler paces through an
injected clock object, and observability reads time through
``obs.set_clock``. A stray ``time.time()`` or ``datetime.now()`` in a
core module silently couples results (timestamps, timeouts, pacing) to
the machine running them.

Flagged inside the core packages: any call *or reference* to
``time.time`` / ``time.monotonic`` / ``time.perf_counter`` /
``time.process_time`` / ``time.sleep`` / ``time.monotonic_ns`` and
friends, ``datetime.datetime.now/utcnow/today``, ``datetime.date.today``.
References count because ``clock: Clock = time.perf_counter`` as a
default argument is exactly how wall-clock leaks past injection seams.

Sanctioned modules (the seams themselves): ``repro/service/scheduler.py``
(``SystemClock``), and the ``repro.obs`` modules whose default clock is
injectable via ``set_clock``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import ModuleUnderCheck, RuleMeta, register_rule
from repro.analysis.rules.common import ImportMap, resolve_dotted

_TIME_ATTRS = {
    "time",
    "time_ns",
    "monotonic",
    "monotonic_ns",
    "perf_counter",
    "perf_counter_ns",
    "process_time",
    "process_time_ns",
    "sleep",
    "localtime",
    "gmtime",
}

_DATETIME_FACTORIES = {
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "datetime.datetime.fromtimestamp",
}


@register_rule
class ClockRule:
    META = RuleMeta(
        rule_id="CLK",
        title="injectable clocks only",
        invariant=(
            "core packages never read the wall clock directly; time flows "
            "through the scheduler's injectable clock or obs.set_clock"
        ),
        severity=Severity.ERROR,
        applies_to=(
            "repro/core",
            "repro/filters",
            "repro/service",
            "repro/sim",
            "repro/collector",
            "repro/cache",
            "repro/queries",
            "repro/obs",
            "repro/analytics",
            "repro/bench",
        ),
        exempt=(
            "repro/service/scheduler.py",
            "repro/obs/__init__.py",
            "repro/obs/registry.py",
            "repro/obs/tracer.py",
        ),
    )

    def check(self, module: ModuleUnderCheck) -> List[Finding]:
        imports = ImportMap(module.tree)
        findings: List[Finding] = []
        flagged_positions: Set[Tuple[int, int]] = set()

        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            target = resolve_dotted(node, imports)
            if target is None:
                continue
            message = self._offense(target)
            if message is None:
                continue
            # An Attribute chain walks into its Name child; dedupe on position.
            position = (node.lineno, node.col_offset)
            if position in flagged_positions:
                continue
            flagged_positions.add(position)
            findings.append(
                Finding(
                    rule=self.META.rule_id,
                    severity=self.META.severity,
                    path=module.path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )
        return findings

    @staticmethod
    def _offense(target: str) -> Optional[str]:
        if target.startswith("time."):
            attr = target[len("time."):]
            if attr in _TIME_ATTRS:
                return (
                    f"direct wall-clock use `{target}`; accept an injectable "
                    "clock (see service.scheduler.SystemClock / obs.set_clock)"
                )
        if target in _DATETIME_FACTORIES:
            return (
                f"direct wall-clock use `{target}()`; thread a clock or a "
                "timestamp parameter through instead"
            )
        return None
