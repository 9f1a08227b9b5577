"""Structured epoch event log: one JSONL record per service tick.

While ``repro serve`` runs, the epoch scheduler can append one JSON line
per processed epoch describing *that epoch's* cost and accuracy-drift
profile — not cumulative totals. The recorder snapshots the metrics
registry each tick and emits deltas, so a record answers "what did tick
N cost and how healthy was the belief state" directly:

* wall time of the whole tick plus per-phase breakdown (predict /
  weight / normalize / resample / the whole filter step);
* queue depth and backpressure stalls, cache hits/misses and hit ratio;
* accuracy-drift proxies: mean particle effective sample size (plus the
  fraction of runs whose ESS collapsed), depletion reseeds.

The file starts with a header line (``format``/``version``) followed by
one record per epoch. Everything is derived from already-recorded
instruments — the log never touches an RNG, so enabling it cannot
perturb replay results (covered by the serve determinism test).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Callable, Dict, IO, List, Mapping, Optional, Tuple

from repro.obs.registry import MetricsRegistry

EVENTS_FORMAT = "repro-epoch-events"
EVENTS_VERSION = 1

#: How many rotated generations ``EpochEventWriter`` keeps by default
#: (``events.jsonl.1`` .. ``events.jsonl.N``; older generations drop).
DEFAULT_KEEP = 3

#: Histogram families reported as per-epoch phase seconds.
PHASE_FAMILIES: Tuple[str, ...] = (
    "filter.predict",
    "filter.weight",
    "filter.normalize",
    "filter.resample",
    "service.filter_tick",
)

_SeriesKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _series_key(item: Mapping[str, object]) -> _SeriesKey:
    labels = item.get("labels")
    if isinstance(labels, dict):
        frozen = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
    else:
        frozen = ()
    return (str(item["name"]), frozen)


def _display(key: _SeriesKey) -> str:
    name, labels = key
    if not labels:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{rendered}}}"


class EpochEventWriter:
    """Append-only JSONL sink with a format header and a write lock.

    With ``rotate_mb`` (or ``rotate_bytes``) set, the log rotates before
    a write would push the current file past the limit: generations
    shift ``path.1 → path.2 → ...`` via atomic :func:`os.replace` (same
    directory, so the rename never crosses filesystems), the live file
    becomes ``path.1``, and a fresh file reopens with a new header line.
    At most ``keep`` rotated generations survive. Rotation holds the
    write lock, so readers tailing the live path only ever see whole
    lines.
    """

    def __init__(
        self,
        path: str,
        fmt: str = EVENTS_FORMAT,
        version: int = EVENTS_VERSION,
        rotate_mb: Optional[float] = None,
        rotate_bytes: Optional[int] = None,
        keep: int = DEFAULT_KEEP,
    ) -> None:
        if rotate_bytes is None and rotate_mb is not None:
            rotate_bytes = int(rotate_mb * 1024 * 1024)
        if rotate_bytes is not None and rotate_bytes <= 0:
            raise ValueError("rotation size must be positive")
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.path = path
        self.fmt = fmt
        self.version = version
        self.rotate_bytes = rotate_bytes
        self.keep = keep
        self.rotations = 0
        self._bytes_written = 0
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None
        self._open_fresh()
        self.records_written = 0

    def _open_fresh(self) -> None:
        self._handle = open(self.path, "w", encoding="utf-8")
        self._bytes_written = 0
        self._write_line({"format": self.fmt, "version": self.version})

    def _write_line(self, record: Mapping[str, object]) -> None:
        handle = self._handle
        if handle is None:
            raise ValueError(f"event log {self.path} is closed")
        line = json.dumps(record, sort_keys=True) + "\n"
        handle.write(line)
        handle.flush()
        self._bytes_written += len(line.encode("utf-8"))

    def _rotate_locked(self) -> None:
        handle = self._handle
        if handle is not None:
            handle.close()
            self._handle = None
        # Drop the oldest generation, then shift the rest up by one.
        oldest = f"{self.path}.{self.keep}"
        if os.path.exists(oldest):
            os.remove(oldest)
        for index in range(self.keep - 1, 0, -1):
            source = f"{self.path}.{index}"
            if os.path.exists(source):
                os.replace(source, f"{self.path}.{index + 1}")
        os.replace(self.path, f"{self.path}.1")
        self._open_fresh()
        self.rotations += 1

    def write(self, record: Mapping[str, object]) -> None:
        """Append one epoch record (thread-safe), rotating if due."""
        with self._lock:
            if (
                self.rotate_bytes is not None
                and self._handle is not None
                and self._bytes_written >= self.rotate_bytes
            ):
                self._rotate_locked()
            self._write_line(record)
            self.records_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EpochEventWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(
    path: str, fmt: str = EVENTS_FORMAT
) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Load an event log; returns ``(header, records)`` after validation."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty event log")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("format") != fmt:
        raise ValueError(
            f"{path} is not a {fmt} file (bad header line)"
        )
    records = [json.loads(line) for line in lines[1:]]
    return header, records


def generation_paths(path: str) -> List[str]:
    """Every existing generation of a rotated event log, oldest first.

    The writer shifts generations ``path.1 → path.2 → ...`` on rotation,
    so higher suffixes are older: the returned order is
    ``path.N, ..., path.1, path``. Generations the writer already
    dropped (or that were deleted out-of-band) are simply absent — the
    list only contains files that exist.
    """
    directory = os.path.dirname(path) or "."
    base = os.path.basename(path)
    rotated: List[Tuple[int, str]] = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        names = []
    for name in names:
        if not name.startswith(base + "."):
            continue
        suffix = name[len(base) + 1 :]
        if suffix.isdigit():
            rotated.append((int(suffix), os.path.join(directory, name)))
    ordered = [p for _, p in sorted(rotated, reverse=True)]
    if os.path.exists(path):
        ordered.append(path)
    return ordered


def read_all_events(
    path: str, fmt: str = EVENTS_FORMAT
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """Load an event log *including rotated generations*, oldest first.

    Every generation carries its own header line (each was opened fresh
    by the writer) and is validated independently; a generation with a
    bad header fails the whole read rather than silently skipping data.
    Missing generations are tolerated — rotation drops the oldest by
    design. Returns ``(headers, records)`` with one header per
    generation read and all records concatenated in time order.
    """
    paths = generation_paths(path)
    if not paths:
        raise FileNotFoundError(f"{path}: no event log generations found")
    headers: List[Dict[str, object]] = []
    records: List[Dict[str, object]] = []
    for generation in paths:
        header, generation_records = read_events(generation, fmt=fmt)
        headers.append(header)
        records.extend(generation_records)
    return headers, records


class EpochEventRecorder:
    """Turns registry state into per-epoch delta records.

    The recorder keeps the previous tick's counter values and histogram
    ``(count, total)`` pairs per series; :meth:`record_epoch` diffs the
    live registry against them, writes one record, and rolls the
    baseline forward. ``writer=None`` skips the JSONL sink but still
    builds and returns records — the alert engine and the ``repro top``
    HTTP source consume them directly.

    ``accuracy_provider`` (optional) supplies extra accuracy fields per
    epoch — the live-simulation occupancy-error ground truth — merged
    into the record's ``accuracy`` section.

    ``analytics_provider`` (optional) supplies the analytics engine's
    per-epoch delta (occupancy snapshot, flow events, completed dwells)
    as the record's ``analytics`` section — what historical window
    queries replay from.
    """

    def __init__(
        self,
        writer: Optional[EpochEventWriter],
        registry: MetricsRegistry,
        accuracy_provider: Optional[
            Callable[[], Mapping[str, object]]
        ] = None,
        analytics_provider: Optional[
            Callable[[], Mapping[str, object]]
        ] = None,
    ) -> None:
        self.writer = writer
        self.registry = registry
        self.accuracy_provider = accuracy_provider
        self.analytics_provider = analytics_provider
        self._prev_counters: Dict[_SeriesKey, int] = {}
        self._prev_histograms: Dict[_SeriesKey, Tuple[int, float]] = {}

    # ------------------------------------------------------------------
    def _diff(
        self, snapshot: Mapping[str, List[Dict[str, object]]]
    ) -> Tuple[Dict[_SeriesKey, int], Dict[_SeriesKey, Tuple[int, float]]]:
        counter_deltas: Dict[_SeriesKey, int] = {}
        for item in snapshot.get("counters", []):
            key = _series_key(item)
            value = int(item.get("value") or 0)
            delta = value - self._prev_counters.get(key, 0)
            self._prev_counters[key] = value
            if delta:
                counter_deltas[key] = delta
        histogram_deltas: Dict[_SeriesKey, Tuple[int, float]] = {}
        for item in snapshot.get("histograms", []):
            key = _series_key(item)
            count = int(item.get("count") or 0)
            total = float(item.get("total") or 0.0)
            prev_count, prev_total = self._prev_histograms.get(key, (0, 0.0))
            self._prev_histograms[key] = (count, total)
            if count != prev_count or total != prev_total:
                histogram_deltas[key] = (count - prev_count, total - prev_total)
        return counter_deltas, histogram_deltas

    @staticmethod
    def _family_mean(
        deltas: Mapping[_SeriesKey, Tuple[int, float]], family: str
    ) -> Optional[float]:
        count = sum(d[0] for key, d in deltas.items() if key[0] == family)
        total = sum(d[1] for key, d in deltas.items() if key[0] == family)
        return total / count if count else None

    @staticmethod
    def _family_counter(
        deltas: Mapping[_SeriesKey, int], family: str
    ) -> int:
        return sum(d for key, d in deltas.items() if key[0] == family)

    # ------------------------------------------------------------------
    def record_epoch(
        self, second: int, tick: int, wall_seconds: float
    ) -> Dict[str, object]:
        """Write (and return) the record for the tick that just finished."""
        snapshot = self.registry.snapshot()
        counter_deltas, histogram_deltas = self._diff(snapshot)

        phases = {
            family: round(
                sum(
                    d[1]
                    for key, d in histogram_deltas.items()
                    if key[0] == family
                ),
                9,
            )
            for family in PHASE_FAMILIES
            if any(key[0] == family for key in histogram_deltas)
        }

        gauges = {
            _series_key(item): item.get("value")
            for item in snapshot.get("gauges", [])
        }
        hits = self._family_counter(counter_deltas, "cache.hits")
        misses = self._family_counter(counter_deltas, "cache.misses")
        lookups = hits + misses

        ess_samples = sum(
            d[0]
            for key, d in histogram_deltas.items()
            if key[0] == "filter.ess"
        )
        ess_collapses = self._family_counter(
            counter_deltas, "filter.ess_collapses"
        )

        record: Dict[str, object] = {
            "tick": tick,
            "second": second,
            "wall_seconds": wall_seconds,
            "phases": phases,
            "queue": {
                "depth": gauges.get(("service.queue_depth", ())),
                "backpressure_waits": self._family_counter(
                    counter_deltas, "service.queue_backpressure_waits"
                ),
            },
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / lookups) if lookups else None,
            },
            "accuracy": {
                "ess_mean": self._family_mean(histogram_deltas, "filter.ess"),
                # Fraction of this epoch's filter runs whose pre-resample
                # ESS collapsed (below a quarter of the particle budget).
                # The mean alone hides localized collapses: one depleted
                # object among twenty healthy ones barely moves it.
                "ess_collapse_frac": (
                    round(ess_collapses / ess_samples, 9)
                    if ess_samples
                    else None
                ),
                "depletion_reseeds": self._family_counter(
                    counter_deltas, "filter.depletion_reseeds"
                ),
            },
            "counters": {
                _display(key): delta
                for key, delta in sorted(counter_deltas.items())
            },
        }
        if self.accuracy_provider is not None:
            accuracy = record["accuracy"]
            assert isinstance(accuracy, dict)
            for key, value in self.accuracy_provider().items():
                accuracy[str(key)] = value
        if self.analytics_provider is not None:
            analytics = self.analytics_provider()
            if analytics:
                record["analytics"] = dict(analytics)
        if self.writer is not None:
            self.writer.write(record)
        return record
