"""repro.obs — zero-dependency observability for the query pipeline.

A process-local metrics registry (counters, gauges, histograms, timers)
plus a span tracer, behind a module-level on/off switch:

* **Off (the default)** every entry point is a guarded no-op: counters
  return immediately, ``span()``/``timer()`` hand back a shared do-nothing
  context manager, and instrumented call sites cost one boolean check.
  The layer is safe to leave compiled into every hot path.
* **On** (:func:`enable`, ``SimulationConfig(observability=True)``, or the
  CLI's ``--trace``) the pipeline records per-phase filter timings,
  pruning-effectiveness counters, cache hit rates, and collector
  throughput into one registry/tracer pair, exportable via
  :mod:`repro.obs.report`.

Observability never touches any random number generator, so enabling it
cannot perturb simulation results (see ``tests/test_determinism.py``).
Time is read through an injectable monotonic clock (:func:`set_clock`)
so exports can be made byte-stable in tests.

Typical use::

    from repro import obs

    obs.enable()
    sim.run_for(120)
    sim.pf_engine.evaluate(sim.now, rng=sim.pf_rng)
    print(obs.render_summary())
    obs.export_json("trace.json")
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, Mapping, Optional, TypeVar, Union, cast

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Stopwatch,
    Timer,
)
from repro.obs.tracer import ActiveSpan, Span, SpanAggregate, Tracer

Clock = Callable[[], float]

__all__ = [
    "ActiveSpan",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanAggregate",
    "Stopwatch",
    "Timer",
    "Tracer",
    "add",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "export_csv",
    "export_json",
    "gauge_set",
    "observe",
    "observe_seconds",
    "registry",
    "render_prometheus",
    "render_summary",
    "reset",
    "set_clock",
    "snapshot",
    "span",
    "stopwatch",
    "timed",
    "timer",
    "tracer",
]


class _NoopContext:
    """Shared do-nothing stand-in for spans and timers when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set_attr(self, key: str, value: object) -> "_NoopContext":
        return self


_NOOP = _NoopContext()

_enabled: bool = False
_clock: Clock = time.perf_counter
_registry = MetricsRegistry(_clock)
_tracer = Tracer(_clock)


# ----------------------------------------------------------------------
# switch
# ----------------------------------------------------------------------
def enabled() -> bool:
    """Fast guard used by every instrumented call site."""
    return _enabled


def enable(fresh: bool = True) -> None:
    """Turn recording on (``fresh=True`` also clears prior data)."""
    global _enabled
    if fresh:
        reset()
    _enabled = True


def disable() -> None:
    """Turn recording off; recorded data stays readable."""
    global _enabled
    _enabled = False


def reset() -> None:
    """Drop all recorded metrics and spans (the switch is untouched)."""
    _registry.clear()
    _tracer.clear()


def set_clock(clock: Clock) -> None:
    """Inject a monotonic clock (tests pass a fake for stable output)."""
    global _clock
    _clock = clock
    _registry.set_clock(clock)
    _tracer.set_clock(clock)


# ----------------------------------------------------------------------
# access
# ----------------------------------------------------------------------
def registry() -> MetricsRegistry:
    """The process-local registry (recorded into only while enabled)."""
    return _registry


def tracer() -> Tracer:
    """The process-local tracer (recorded into only while enabled)."""
    return _tracer


# ----------------------------------------------------------------------
# recording shortcuts (all no-ops while disabled)
# ----------------------------------------------------------------------
Labels = Optional[Mapping[str, object]]


def add(name: str, amount: int = 1, labels: Labels = None) -> None:
    """Increment a counter (one series per distinct label set)."""
    if _enabled:
        _registry.counter(name, labels).inc(amount)


def gauge_set(name: str, value: float, labels: Labels = None) -> None:
    """Set a gauge."""
    if _enabled:
        _registry.gauge(name, labels).set(value)


def observe(name: str, value: float, labels: Labels = None) -> None:
    """Record one histogram sample."""
    if _enabled:
        _registry.histogram(name, labels).observe(value)


def observe_seconds(name: str, seconds: float, labels: Labels = None) -> None:
    """Record one elapsed time measured elsewhere on a timer series."""
    if _enabled:
        _registry.timer(name, labels).histogram.observe(seconds)


def timer(name: str, labels: Labels = None) -> Union[Timer, _NoopContext]:
    """A ``with``-able timer feeding the same-named histogram series."""
    if _enabled:
        return _registry.timer(name, labels)
    return _NOOP


def span(name: str, **attrs: object) -> Union[ActiveSpan, _NoopContext]:
    """A ``with``-able trace span (nested under the current span)."""
    if _enabled:
        return _tracer.span(name, **attrs)
    return _NOOP


F = TypeVar("F", bound=Callable[..., object])


def timed(name: str) -> Callable[[F], F]:
    """Decorator: trace every call of the wrapped function as a span."""

    def decorate(func: F) -> F:
        @functools.wraps(func)
        def wrapper(*args: object, **kwargs: object) -> object:
            if not _enabled:
                return func(*args, **kwargs)
            with _tracer.span(name):
                return func(*args, **kwargs)

        return cast(F, wrapper)

    return decorate


def stopwatch() -> Stopwatch:
    """A standalone accumulating stopwatch on the obs clock.

    Works whether or not recording is enabled — benchmarks use it for
    coarse section timing without touching the shared registry.
    """
    return Stopwatch(_clock)


# ----------------------------------------------------------------------
# export (delegates to repro.obs.report; re-exported for convenience)
# ----------------------------------------------------------------------
def snapshot(meta: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Combined metrics + trace snapshot as one plain dict."""
    from repro.obs.report import build_snapshot

    return build_snapshot(_registry, _tracer, meta=meta)


def export_json(path: str, meta: Optional[Dict[str, object]] = None) -> None:
    """Write the combined snapshot to a JSON file."""
    from repro.obs.report import write_json

    write_json(snapshot(meta=meta), path)


def export_csv(path: str) -> None:
    """Write flattened metric rows to a CSV file."""
    from repro.obs.report import write_csv

    write_csv(snapshot(), path)


def render_summary(data: Optional[Dict[str, object]] = None) -> str:
    """Human-readable summary table of a snapshot (default: the live one)."""
    from repro.obs.report import render_summary as _render

    return _render(data if data is not None else snapshot())


def render_prometheus(data: Optional[Dict[str, object]] = None) -> str:
    """Prometheus text exposition of a snapshot (default: the live one)."""
    from repro.obs.expo import render_prometheus as _render

    return _render(data if data is not None else snapshot())


def export_chrome_trace(path: str) -> None:
    """Write the live trace as Chrome trace-event JSON (Perfetto-loadable)."""
    from repro.obs.chrometrace import write_chrome_trace

    write_chrome_trace(snapshot(), path)
