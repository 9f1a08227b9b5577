"""Process-local metrics registry.

Four instrument kinds, chosen to cover everything the evaluation in the
paper's Section 5 reports:

* :class:`Counter` — monotonically increasing event counts (readings
  ingested, candidates pruned, cache hits);
* :class:`Gauge` — last-write-wins scalars (objects currently tracked);
* :class:`Histogram` — value distributions with quantile summaries
  (per-phase latencies, readings per second);
* :class:`Timer` — a histogram of elapsed seconds fed by a context
  manager, plus a :class:`Stopwatch` for accumulating coarse sections.

Every instrument may carry a small **frozen label set** — a mapping of
dimension names to values fixed at creation (``partition="3"``,
``backend="kalman"``, ``query="knn"``). Each distinct ``(name, labels)``
pair is its own series, aggregated independently in the registry and
exported side by side in snapshots; the Prometheus exposition
(:mod:`repro.obs.expo`) renders the labels natively.

Everything is plain Python with no dependencies. Time is read through an
injectable monotonic clock so tests (and the determinism suite) can drive
instruments with a fake clock and get byte-stable output. Instruments are
safe to create and record into from any thread (the scheduler loop, the
metrics HTTP server, the gateway's pipe pumps): series creation
is guarded by a registry lock, per-instrument mutation by the instrument's
own lock, and timer start stacks are thread-local.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional, Tuple

Clock = Callable[[], float]

#: A frozen, canonical label set: sorted ``(key, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram sample retention; past this the histogram keeps
#: count/sum/min/max exact but stops storing samples for quantiles.
DEFAULT_MAX_SAMPLES = 65536

#: Label dimensionality bound: labels are for small frozen sets (partition,
#: backend, query kind), not for unbounded values like object ids.
MAX_LABELS = 8

_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def freeze_labels(labels: Optional[Mapping[str, object]]) -> LabelKey:
    """Canonicalize a label mapping into a sorted, hashable key.

    Label names must be valid identifiers (``[a-zA-Z_][a-zA-Z0-9_]*`` —
    the Prometheus label grammar); values are coerced to ``str``. At most
    :data:`MAX_LABELS` dimensions per series.
    """
    if not labels:
        return ()
    if len(labels) > MAX_LABELS:
        raise ValueError(
            f"label set has {len(labels)} dimensions (max {MAX_LABELS}); "
            "labels are for small frozen dimensions, not per-object values"
        )
    frozen = []
    for key in sorted(labels):
        if not _LABEL_NAME.match(key):
            raise ValueError(f"invalid label name {key!r}")
        frozen.append((key, str(labels[key])))
    return tuple(frozen)


class Counter:
    """A monotonically increasing count. Safe to increment from any
    thread."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels: Dict[str, str] = dict(labels)
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        data: Dict[str, object] = {
            "name": self.name, "type": "counter", "value": self.value,
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels: Dict[str, str] = dict(labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the current value."""
        self.value = float(value)

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        data: Dict[str, object] = {
            "name": self.name, "type": "gauge", "value": self.value,
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class Histogram:
    """A distribution of observed values with on-demand quantiles.

    Samples are retained (up to ``max_samples``) so quantiles are exact,
    not sketched; past the cap the histogram degrades gracefully —
    ``count``/``total``/``min``/``max`` stay exact, quantiles are computed
    over the retained prefix, and ``dropped`` records how many samples
    were not retained. The export carries that count as
    ``dropped_samples`` plus a ``quantiles_estimated`` flag, so a capped
    histogram's quantiles are honestly labeled as estimates instead of
    silently passing for exact. Retention is deterministic (first-come)
    so two identical runs summarize identically.

    ``timer`` marks a series that backs a :class:`Timer`, whose samples
    are elapsed seconds; any other histogram holds plain values (an ESS,
    a reading rate), and consumers must not render it as time.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max", "dropped",
                 "max_samples", "timer", "_samples", "_lock")

    def __init__(
        self,
        name: str,
        max_samples: int = DEFAULT_MAX_SAMPLES,
        labels: LabelKey = (),
    ) -> None:
        self.name = name
        self.labels: Dict[str, str] = dict(labels)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.dropped = 0
        self.max_samples = max_samples
        self.timer = False
        self._samples: List[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample (thread-safe)."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._samples) < self.max_samples:
                self._samples.append(value)
            else:
                self.dropped += 1

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean, or None when empty."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1) over retained samples."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        index = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[index]

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot with standard quantile summaries."""
        data: Dict[str, object] = {
            "name": self.name,
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "dropped_samples": self.dropped,
            "quantiles_estimated": self.dropped > 0,
            "timer": self.timer,
        }
        if self.labels:
            data["labels"] = dict(self.labels)
        return data


class Timer:
    """A histogram of elapsed seconds, fed by ``with`` blocks.

    Timers nest naturally — each ``with`` records its own elapsed span::

        with registry.timer("filter.run"):
            with registry.timer("filter.predict"):
                ...

    Re-entrant use of one timer object is also safe: each ``with`` keeps
    its start time on a stack. The stack is thread-local, so threads
    timing the same phase concurrently pair their own start and stop
    instead of popping each other's.
    """

    __slots__ = ("histogram", "_clock", "_local")

    def __init__(self, histogram: Histogram, clock: Clock) -> None:
        self.histogram = histogram
        self._clock = clock
        self._local = threading.local()

    @property
    def name(self) -> str:
        """The underlying histogram's name."""
        return self.histogram.name

    @property
    def _starts(self) -> List[float]:
        starts: Optional[List[float]] = getattr(self._local, "starts", None)
        if starts is None:
            starts = []
            self._local.starts = starts
        return starts

    def __enter__(self) -> "Timer":
        self._starts.append(self._clock())
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.histogram.observe(self._clock() - self._starts.pop())


class Stopwatch:
    """Accumulates wall-clock over several ``with`` sections.

    The benchmark ablations time only the query-evaluation part of each
    round; a stopwatch sums those sections without polluting a shared
    registry::

        sw = Stopwatch()
        for round in rounds:
            advance_world()
            with sw:
                evaluate()
        print(sw.total)
    """

    __slots__ = ("total", "laps", "_clock", "_starts")

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self.total = 0.0
        self.laps = 0
        self._clock = clock
        self._starts: List[float] = []

    def __enter__(self) -> "Stopwatch":
        self._starts.append(self._clock())
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.total += self._clock() - self._starts.pop()
        self.laps += 1


class MetricsRegistry:
    """Name-and-label-keyed store of counters, gauges, histograms, timers.

    Instruments are created on first use and shared thereafter; names are
    dot-separated (``"filter.predict"``, ``"cache.hits"``), and an
    optional label mapping selects one series of a metric family
    (``counter("filter.runs", {"backend": "kalman"})``). One registry
    instance is process-local state — the :mod:`repro.obs` facade owns a
    default instance, but tests may build private ones. Series creation
    is lock-guarded so any thread may create labeled series
    concurrently.
    """

    def __init__(self, clock: Clock = time.perf_counter) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}
        self._timers: Dict[Tuple[str, LabelKey], Timer] = {}

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Clock:
        """The monotonic clock used by timers."""
        return self._clock

    def set_clock(self, clock: Clock) -> None:
        """Swap the clock (existing timers pick it up on next use)."""
        with self._lock:
            self._clock = clock
            for timer in self._timers.values():
                timer._clock = clock

    # ------------------------------------------------------------------
    def counter(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Counter:
        """Get or create one counter series."""
        key = (name, freeze_labels(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.get(key)
                if instrument is None:
                    instrument = self._counters[key] = Counter(name, key[1])
        return instrument

    def gauge(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Gauge:
        """Get or create one gauge series."""
        key = (name, freeze_labels(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.get(key)
                if instrument is None:
                    instrument = self._gauges[key] = Gauge(name, key[1])
        return instrument

    def histogram(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Histogram:
        """Get or create one histogram series."""
        key = (name, freeze_labels(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.get(key)
                if instrument is None:
                    instrument = self._histograms[key] = Histogram(
                        name, labels=key[1]
                    )
        return instrument

    def timer(
        self, name: str, labels: Optional[Mapping[str, object]] = None
    ) -> Timer:
        """Get or create a timer (backed by the same-named histogram series).

        The histogram is marked as a timer's (:attr:`Histogram.timer`).
        """
        key = (name, freeze_labels(labels))
        instrument = self._timers.get(key)
        if instrument is None:
            histogram = self.histogram(name, labels)
            histogram.timer = True
            with self._lock:
                instrument = self._timers.get(key)
                if instrument is None:
                    instrument = self._timers[key] = Timer(
                        histogram, self._clock
                    )
        return instrument

    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        """Sum of one counter family across all of its label sets."""
        with self._lock:
            series = [c for (n, _), c in self._counters.items() if n == name]
        return sum(c.value for c in series)

    def series_of(self, name: str) -> List[Dict[str, object]]:
        """Every series of one metric family, serialized, label-sorted."""
        with self._lock:
            found = [
                (key, instrument.as_dict())
                for mapping in (self._counters, self._gauges, self._histograms)
                for key, instrument in mapping.items()
                if key[0] == name
            ]
        return [data for _, data in sorted(found, key=lambda item: item[0])]

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every instrument (used between runs and by tests)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._timers.clear()

    def snapshot(self) -> Dict[str, List[Dict[str, object]]]:
        """All instruments, serialized, sorted by name then label set."""
        with self._lock:
            counters = [self._counters[k] for k in sorted(self._counters)]
            gauges = [self._gauges[k] for k in sorted(self._gauges)]
            histograms = [self._histograms[k] for k in sorted(self._histograms)]
        return {
            "counters": [c.as_dict() for c in counters],
            "gauges": [g.as_dict() for g in gauges],
            "histograms": [h.as_dict() for h in histograms],
        }
