"""Deterministic span-anchored cost-attribution profiler.

The tracer (:mod:`repro.obs.tracer`) already records every instrumented
section as a span with start/end/parent/thread. This module turns one
canonical ``repro-trace`` snapshot into *attribution*: where the run's
time actually went, as

* **per-phase self/cumulative tables** — ``self`` is a span's duration
  minus its direct children (time spent in that phase's own code),
  ``cum`` counts each phase once per stack occurrence (recursive
  re-entries are not double-counted);
* **per-stack-path self time** — the classic collapsed-stack form
  (``a;b;c <microseconds>``) consumed by flamegraph tooling;
* **speedscope JSON** — an evented profile per thread, loadable at
  https://www.speedscope.app (``repro profile --speedscope`` /
  ``repro stats --flamegraph``);
* **per-backend / per-object-bucket rollups** — read from
  the labeled metric series and ``filter.run`` span attributes, the
  decision record for where vectorization effort should go. Object
  buckets see only spans that name one object: the particle filter's
  batches of one and the other backends' per-object runs.

Determinism: attribution is pure arithmetic over the snapshot, and
``repro profile`` (without ``--wall``) drives the pipeline under a
:class:`CountingClock` — an injectable clock whose k-th read returns
``k * step``. Span durations then measure *instrumented operations*,
not machine speed, so two same-seed runs produce bit-identical tables
and exports on any machine. ``--wall`` swaps the real clock back in for
genuine wall-time attribution.

The profiler adds **zero** new hot-path call sites: it consumes spans
the pipeline already emits behind the ``obs.enabled()`` guard, so the
disabled path stays one guard per call site that reaches no recorder
and keeps no memory (``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import threading
import zlib
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

PROFILE_FORMAT = "repro-profile"
PROFILE_VERSION = 1

#: Object ids are hashed into this many buckets for the per-object
#: rollup (a bounded dimension, mirroring the labels rule: attribution
#: tables never carry unbounded per-object cardinality).
OBJECT_BUCKETS = 8

#: Speedscope's published schema URL (part of the file format).
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


class CountingClock:
    """Deterministic injectable clock: the k-th read returns ``k * step``.

    Installed via ``obs.set_clock`` by ``repro profile``; every span
    boundary and timer read advances it by exactly one step, so elapsed
    "time" counts instrumented operations. Thread-safe, though the
    deterministic profile workload is single-threaded by construction
    (thread interleaving would otherwise perturb read order).
    """

    __slots__ = ("step", "_reads", "_lock")

    def __init__(self, step: float = 1e-6) -> None:
        if step <= 0:
            raise ValueError("step must be positive")
        self.step = step
        self._reads = 0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            self._reads += 1
            return self._reads * self.step

    @property
    def reads(self) -> int:
        """How many times the clock has been read."""
        with self._lock:
            return self._reads


def object_bucket(object_id: str, buckets: int = OBJECT_BUCKETS) -> int:
    """Stable object-id bucket (CRC32 of the id, modulo ``buckets``)."""
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    return zlib.crc32(object_id.encode("utf-8")) % buckets


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
_SpanDict = Mapping[str, object]


def _finished_spans(snapshot: Mapping[str, object]) -> List[Dict[str, object]]:
    trace = snapshot.get("trace")
    if not isinstance(trace, Mapping):
        return []
    spans = trace.get("spans")
    if not isinstance(spans, list):
        return []
    out: List[Dict[str, object]] = []
    for span in spans:
        if isinstance(span, dict) and span.get("end") is not None:
            out.append(span)
    return out


def _duration(span: _SpanDict) -> float:
    end = span.get("end")
    start = span.get("start")
    if not isinstance(end, (int, float)) or not isinstance(start, (int, float)):
        return 0.0
    return float(end) - float(start)


def _round(value: float) -> float:
    # Nine decimals: microsecond-stable, and identical across runs for
    # the deterministic clock (whose values are exact small multiples).
    return round(value, 9)


@dataclass(frozen=True)
class PhaseRow:
    """One phase's attribution: calls, self seconds, cumulative seconds."""

    phase: str
    calls: int
    self_seconds: float
    cum_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "calls": self.calls,
            "self_seconds": _round(self.self_seconds),
            "cum_seconds": _round(self.cum_seconds),
        }


@dataclass(frozen=True)
class PathRow:
    """Self time attributed to one full stack path (``a;b;c``)."""

    path: str
    calls: int
    self_seconds: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "calls": self.calls,
            "self_seconds": _round(self.self_seconds),
        }


@dataclass
class AttributionProfile:
    """The full attribution document built from one trace snapshot."""

    clock: str  # "deterministic" | "wall"
    total_seconds: float
    phases: List[PhaseRow]
    timers: List[Dict[str, object]]
    values: List[Dict[str, object]]
    paths: List[PathRow]
    backends: List[Dict[str, object]]
    object_buckets: List[Dict[str, object]]
    dropped_spans: int
    meta: Dict[str, object]

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "clock": self.clock,
            "meta": dict(self.meta),
            "total_seconds": _round(self.total_seconds),
            "phases": [row.as_dict() for row in self.phases],
            "timers": list(self.timers),
            "values": list(self.values),
            "paths": [row.as_dict() for row in self.paths],
            "backends": list(self.backends),
            "object_buckets": list(self.object_buckets),
            "dropped_spans": self.dropped_spans,
        }


def _metric_series(
    snapshot: Mapping[str, object], kind: str, name: str
) -> List[Dict[str, object]]:
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, Mapping):
        return []
    entries = metrics.get(kind)
    if not isinstance(entries, list):
        return []
    return [e for e in entries if isinstance(e, dict) and e.get("name") == name]


def _labels_of(item: Mapping[str, object]) -> Dict[str, str]:
    labels = item.get("labels")
    if isinstance(labels, dict):
        return {str(k): str(v) for k, v in labels.items()}
    return {}


def _backend_rows(
    snapshot: Mapping[str, object], spans: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    # Seconds come from ``filter.run`` spans, which every path emits
    # (batch engine, service, gateway workers); ``service.filter_tick``
    # exists on the service path only and just supplies the tick count.
    seconds: Dict[str, float] = {}
    for span in spans:
        attrs = span.get("attrs")
        if span.get("name") != "filter.run" or not isinstance(attrs, dict):
            continue
        backend = str(attrs.get("backend", "?"))
        seconds[backend] = seconds.get(backend, 0.0) + _duration(span)
    ticks: Dict[str, int] = {}
    for item in _metric_series(snapshot, "histograms", "service.filter_tick"):
        backend = _labels_of(item).get("backend", "?")
        ticks[backend] = ticks.get(backend, 0) + int(str(item.get("count") or 0))
    runs: Dict[str, int] = {}
    for item in _metric_series(snapshot, "counters", "filter.backend_runs"):
        backend = _labels_of(item).get("backend", "?")
        runs[backend] = runs.get(backend, 0) + int(str(item.get("value") or 0))
    rows = []
    for backend in sorted(set(seconds) | set(ticks) | set(runs)):
        rows.append(
            {
                "backend": backend,
                "filter_runs": runs.get(backend, 0),
                "ticks": ticks.get(backend, 0),
                "seconds": _round(seconds.get(backend, 0.0)),
            }
        )
    return rows


def _histogram_rows(
    snapshot: Mapping[str, object],
) -> Tuple[List[Dict[str, object]], List[Dict[str, object]]]:
    """``(timers, values)``: every histogram series as one summary row.

    Timer rows are ``(series, count, total_seconds)``. This is where the
    filter's inner phases live — ``filter.predict`` / ``weight`` /
    ``normalize`` / ``resample``, sensing likelihood, cache,
    snapshotting — as timer histograms rather than spans. Only series
    the snapshot marks ``timer`` hold seconds; every other histogram (an
    ESS, a reading rate) is a value row ``(series, count, mean, min,
    max)`` in its own unit. A snapshot written before series carried the
    mark lists every histogram as a timer, as it was then read.
    """
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, Mapping):
        return [], []
    entries = metrics.get("histograms")
    if not isinstance(entries, list):
        return [], []
    timers = []
    values = []
    for item in entries:
        if not isinstance(item, dict):
            continue
        labels = _labels_of(item)
        series = str(item.get("name"))
        if labels:
            rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            series = f"{series}{{{rendered}}}"
        count = int(str(item.get("count") or 0))
        if item.get("timer", True):
            timers.append(
                {
                    "series": series,
                    "count": count,
                    "total_seconds": _round(float(str(item.get("total") or 0.0))),
                }
            )
            continue
        values.append(
            {
                "series": series,
                "count": count,
                **{
                    key: None if item.get(key) is None else _round(float(str(item[key])))
                    for key in ("mean", "min", "max")
                },
            }
        )
    timers.sort(
        key=lambda r: (-float(str(r["total_seconds"])), str(r["series"]))
    )
    values.sort(key=lambda r: str(r["series"]))
    return timers, values


def _bucket_rows(spans: List[Dict[str, object]]) -> List[Dict[str, object]]:
    seconds = [0.0] * OBJECT_BUCKETS
    calls = [0] * OBJECT_BUCKETS
    objects: List[set] = [set() for _ in range(OBJECT_BUCKETS)]
    seen = False
    for span in spans:
        if span.get("name") != "filter.run":
            continue
        attrs = span.get("attrs")
        if not isinstance(attrs, dict):
            continue
        object_id = attrs.get("object")
        if object_id is None:
            continue
        seen = True
        bucket = object_bucket(str(object_id))
        seconds[bucket] += _duration(span)
        calls[bucket] += 1
        objects[bucket].add(str(object_id))
    if not seen:
        return []
    return [
        {
            "bucket": index,
            "objects": len(objects[index]),
            "filter_runs": calls[index],
            "seconds": _round(seconds[index]),
        }
        for index in range(OBJECT_BUCKETS)
        if calls[index]
    ]


def build_profile(
    snapshot: Mapping[str, object],
    clock: str = "wall",
    meta: Optional[Mapping[str, object]] = None,
) -> AttributionProfile:
    """Compute the attribution document for one ``repro-trace`` snapshot."""
    spans = _finished_spans(snapshot)
    by_index: Dict[int, Dict[str, object]] = {}
    for span in spans:
        by_index[int(str(span.get("index") or 0))] = span

    children_seconds: Dict[int, float] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            key = int(str(parent))
            children_seconds[key] = children_seconds.get(key, 0.0) + _duration(span)

    def ancestor_has_name(span: _SpanDict, name: object) -> bool:
        parent = span.get("parent")
        hops = 0
        while parent is not None and hops < 10_000:
            above = by_index.get(int(str(parent)))
            if above is None:
                return False
            if above.get("name") == name:
                return True
            parent = above.get("parent")
            hops += 1
        return False

    def path_of(span: _SpanDict) -> str:
        names = [str(span.get("name"))]
        parent = span.get("parent")
        hops = 0
        while parent is not None and hops < 10_000:
            above = by_index.get(int(str(parent)))
            if above is None:
                break
            names.append(str(above.get("name")))
            parent = above.get("parent")
            hops += 1
        return ";".join(reversed(names))

    phase_calls: Dict[str, int] = {}
    phase_self: Dict[str, float] = {}
    phase_cum: Dict[str, float] = {}
    path_calls: Dict[str, int] = {}
    path_self: Dict[str, float] = {}
    total_self = 0.0
    for span in spans:
        name = str(span.get("name"))
        duration = _duration(span)
        index = int(str(span.get("index") or 0))
        self_seconds = max(duration - children_seconds.get(index, 0.0), 0.0)
        total_self += self_seconds
        phase_calls[name] = phase_calls.get(name, 0) + 1
        phase_self[name] = phase_self.get(name, 0.0) + self_seconds
        if not ancestor_has_name(span, span.get("name")):
            phase_cum[name] = phase_cum.get(name, 0.0) + duration
        path = path_of(span)
        path_calls[path] = path_calls.get(path, 0) + 1
        path_self[path] = path_self.get(path, 0.0) + self_seconds

    phases = [
        PhaseRow(
            phase=name,
            calls=phase_calls[name],
            self_seconds=phase_self[name],
            cum_seconds=phase_cum.get(name, 0.0),
        )
        for name in phase_calls
    ]
    phases.sort(key=lambda row: (-row.self_seconds, row.phase))
    paths = [
        PathRow(path=path, calls=path_calls[path], self_seconds=path_self[path])
        for path in path_calls
    ]
    paths.sort(key=lambda row: (-row.self_seconds, row.path))

    trace = snapshot.get("trace")
    dropped = 0
    if isinstance(trace, Mapping):
        dropped = int(str(trace.get("dropped") or 0))

    timers, values = _histogram_rows(snapshot)
    return AttributionProfile(
        clock=clock,
        total_seconds=total_self,
        phases=phases,
        timers=timers,
        values=values,
        paths=paths,
        backends=_backend_rows(snapshot, spans),
        object_buckets=_bucket_rows(spans),
        dropped_spans=dropped,
        meta=dict(meta) if meta else {},
    )


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
def to_collapsed(profile: AttributionProfile) -> str:
    """Collapsed-stack text: one ``path <self-microseconds>`` line per path.

    The standard input format of flamegraph.pl / inferno; values are
    integer microseconds so the output is byte-stable.
    """
    lines = [
        f"{row.path} {int(round(row.self_seconds * 1e6))}"
        for row in sorted(profile.paths, key=lambda r: r.path)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def to_speedscope(
    snapshot: Mapping[str, object], name: str = "repro profile"
) -> Dict[str, object]:
    """Convert one trace snapshot into a speedscope evented document.

    One profile per recorded thread; frames are shared and indexed in
    first-appearance order (span-index order, so same-seed runs emit
    byte-identical documents).
    """
    spans = _finished_spans(snapshot)
    spans.sort(key=lambda s: int(str(s.get("index") or 0)))
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    for span in spans:
        span_name = str(span.get("name"))
        if span_name not in frame_index:
            frame_index[span_name] = len(frames)
            frames.append({"name": span_name})

    by_thread: Dict[int, List[Dict[str, object]]] = {}
    for span in spans:
        by_thread.setdefault(int(str(span.get("thread") or 0)), []).append(span)

    profiles: List[Dict[str, object]] = []
    for thread in sorted(by_thread):
        thread_spans = by_thread[thread]
        events: List[Tuple[float, int, int, Dict[str, object]]] = []
        for span in thread_spans:
            start = float(str(span.get("start") or 0.0))
            end = float(str(span.get("end") or 0.0))
            depth = int(str(span.get("depth") or 0))
            frame = frame_index[str(span.get("name"))]
            # Sort keys: at equal timestamps a close precedes an open;
            # deeper frames close first and open last, preserving nesting.
            events.append((start, 1, depth, {"type": "O", "frame": frame, "at": start}))
            events.append((end, 0, -depth, {"type": "C", "frame": frame, "at": end}))
        events.sort(key=lambda item: (item[0], item[1], item[2]))
        start_value = min((e[0] for e in events), default=0.0)
        end_value = max((e[0] for e in events), default=0.0)
        profiles.append(
            {
                "type": "evented",
                "name": f"thread {thread}",
                "unit": "seconds",
                "startValue": start_value,
                "endValue": end_value,
                "events": [e[3] for e in events],
            }
        )

    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "exporter": "repro-profiler",
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_profile(profile: AttributionProfile, path: str) -> None:
    """Write the attribution document as stable, sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(profile.as_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_profile(path: str) -> Dict[str, object]:
    """Read and validate an attribution document."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or data.get("format") != PROFILE_FORMAT:
        raise ValueError(f"{path} is not a {PROFILE_FORMAT} file")
    return data


def write_speedscope(
    snapshot: Mapping[str, object], path: str, name: str = "repro profile"
) -> None:
    """Write the speedscope export of one trace snapshot."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(to_speedscope(snapshot, name=name), handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_collapsed(profile: AttributionProfile, path: str) -> None:
    """Write the collapsed-stack export."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_collapsed(profile))


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _fmt_seconds(value: float, deterministic: bool) -> str:
    if deterministic:
        # Deterministic units are exact multiples of the clock step;
        # render as integer microsteps, the honest unit.
        return str(int(round(value * 1e6)))
    return f"{value:.6f}"


def _fmt_value(value: object) -> str:
    return "-" if value is None else f"{float(str(value)):.6g}"


def render_attribution(profile: AttributionProfile, top: int = 12) -> str:
    """Human-readable attribution report (what ``repro profile`` prints)."""
    deterministic = profile.clock == "deterministic"
    unit = "units" if deterministic else "seconds"
    total = profile.total_seconds or 1.0
    lines: List[str] = []
    lines.append(
        f"phase attribution (clock={profile.clock}, "
        f"total {_fmt_seconds(profile.total_seconds, deterministic)} {unit})"
    )
    header = f"{'phase':<28} {'calls':>8} {'self':>12} {'cum':>12} {'self%':>7} {'cum%':>7}"
    lines.append(header)
    for row in profile.phases[:top]:
        lines.append(
            f"{row.phase:<28} {row.calls:>8} "
            f"{_fmt_seconds(row.self_seconds, deterministic):>12} "
            f"{_fmt_seconds(row.cum_seconds, deterministic):>12} "
            f"{100.0 * row.self_seconds / total:>6.1f}% "
            f"{100.0 * row.cum_seconds / total:>6.1f}%"
        )
    if len(profile.phases) > top:
        lines.append(f"... {len(profile.phases) - top} more phases")

    if profile.timers:
        lines.append("")
        lines.append("timer histograms (inner phases: predict/weight/... )")
        for row in profile.timers[:top]:
            lines.append(
                f"  {str(row['series']):<32} "
                f"{row['count']:>8} x  "
                f"{_fmt_seconds(float(str(row['total_seconds'])), deterministic)} {unit}"
            )
        if len(profile.timers) > top:
            lines.append(f"  ... {len(profile.timers) - top} more series")

    if profile.values:
        lines.append("")
        lines.append("value histograms (plain values, not time)")
        for row in profile.values[:top]:
            lines.append(
                f"  {str(row['series']):<32} "
                f"{row['count']:>8} x  mean {_fmt_value(row['mean'])} "
                f"(min {_fmt_value(row['min'])}, max {_fmt_value(row['max'])})"
            )
        if len(profile.values) > top:
            lines.append(f"  ... {len(profile.values) - top} more series")

    if profile.backends:
        lines.append("")
        lines.append("per-backend filter time")
        for backend in profile.backends:
            lines.append(
                f"  {backend['backend']}: "
                f"{_fmt_seconds(float(str(backend['seconds'])), deterministic)} {unit}, "
                f"{backend['filter_runs']} filter runs"
            )
    if profile.object_buckets:
        lines.append("")
        lines.append(f"object buckets (crc32 % {OBJECT_BUCKETS})")
        for bucket in profile.object_buckets:
            lines.append(
                f"  bucket {bucket['bucket']}: {bucket['objects']} objects, "
                f"{bucket['filter_runs']} runs, "
                f"{_fmt_seconds(float(str(bucket['seconds'])), deterministic)} {unit}"
            )
    if profile.dropped_spans:
        lines.append("")
        lines.append(
            f"warning: {profile.dropped_spans} spans past the retention cap; "
            "attribution covers the retained prefix (aggregates stay exact)"
        )
    return "\n".join(lines)
