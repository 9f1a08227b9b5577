"""Span-based tracing.

A span is one named, timed section of work; spans nest, forming a tree
per top-level operation (one ``engine.evaluate`` span contains one
``engine.filter`` span, which contains one ``filter.run`` span per
filter batch, ...). The particle filter advances a batch of objects in
lockstep, so its ``filter.run`` span carries ``objects`` (the batch
size) and ``backend``, plus ``object`` when the batch holds one object;
the other backends emit one span per object.

The tracer keeps finished spans in a bounded list (dropping the newest
past ``max_spans``, with an exact drop count) and *always* folds every
span's duration into a per-name aggregate — so even a capped trace
reports exact per-phase totals. Like the registry, it reads time through
an injectable monotonic clock.

Nesting is tracked per thread: each thread has its own open-span stack,
so spans opened on another thread (an HTTP handler, a gateway pipe
pump) form their own trees instead of corrupting the main thread's.
Finished spans and aggregates land in shared, lock-guarded storage.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

Clock = Callable[[], float]

#: Default retained-span cap; aggregates stay exact past it.
DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished (or in-flight) traced section."""

    name: str
    start: float
    depth: int
    parent: Optional[int]  # index of the parent span, None at the root
    index: int
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    #: Normalized thread id: 0 for the first thread that opened a span,
    #: 1 for the second, ... Stable within a run; used by the Chrome
    #: trace export to place spans on per-thread tracks.
    thread: int = 0

    @property
    def duration(self) -> Optional[float]:
        """Elapsed seconds, or None while still open."""
        return None if self.end is None else self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "depth": self.depth,
            "parent": self.parent,
            "index": self.index,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


@dataclass
class SpanAggregate:
    """Exact per-name rollup, maintained even when spans are dropped."""

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def add(self, duration: float) -> None:
        """Fold one finished span in."""
        self.count += 1
        self.total += duration
        if self.min is None or duration < self.min:
            self.min = duration
        if self.max is None or duration > self.max:
            self.max = duration

    @property
    def mean(self) -> Optional[float]:
        """Mean duration, or None when empty."""
        return self.total / self.count if self.count else None

    def as_dict(self) -> Dict[str, object]:
        """Serializable snapshot."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


class ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        """The underlying span record (attrs may be added while open)."""
        return self._span

    def set_attr(self, key: str, value: object) -> "ActiveSpan":
        """Attach an attribute to the span."""
        self._span.attrs[key] = value
        return self

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self._span)


class Tracer:
    """Collects a tree of timed spans."""

    def __init__(
        self,
        clock: Clock = time.perf_counter,
        max_spans: int = DEFAULT_MAX_SPANS,
    ) -> None:
        self._clock = clock
        self.max_spans = max_spans
        self._spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._aggregates: Dict[str, SpanAggregate] = {}
        self._next_index = 0
        self._next_thread = 0
        self.dropped = 0

    @property
    def _stack(self) -> List[Span]:
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def _thread_id(self) -> int:
        """This thread's normalized id (assigned in first-span order)."""
        assigned: Optional[int] = getattr(self._local, "thread_id", None)
        if assigned is None:
            with self._lock:
                assigned = self._next_thread
                self._next_thread += 1
            self._local.thread_id = assigned
        return assigned

    # ------------------------------------------------------------------
    @property
    def clock(self) -> Clock:
        """The monotonic clock spans read."""
        return self._clock

    def set_clock(self, clock: Clock) -> None:
        """Swap the clock."""
        self._clock = clock

    @property
    def depth(self) -> int:
        """Current nesting depth in this thread (0 outside any span)."""
        return len(self._stack)

    def current(self) -> Optional[Span]:
        """This thread's innermost open span, or None."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> ActiveSpan:
        """Open a span; use as a context manager."""
        stack = self._stack
        parent = stack[-1].index if stack else None
        with self._lock:
            index = self._next_index
            self._next_index += 1
        span = Span(
            name=name,
            start=self._clock(),
            depth=len(stack),
            parent=parent,
            index=index,
            attrs=dict(attrs),
            thread=self._thread_id,
        )
        stack.append(span)
        return ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        stack = self._stack
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order; "
                f"open stack: {[s.name for s in stack]}"
            )
        stack.pop()
        end = self._clock()
        span.end = end
        with self._lock:
            aggregate = self._aggregates.get(span.name)
            if aggregate is None:
                aggregate = self._aggregates[span.name] = SpanAggregate(span.name)
            aggregate.add(end - span.start)
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self.dropped += 1

    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """All retained finished spans, in finish order."""
        with self._lock:
            return list(self._spans)

    def aggregates(self) -> Dict[str, SpanAggregate]:
        """Exact per-name rollups (never affected by the span cap)."""
        with self._lock:
            return dict(self._aggregates)

    def clear(self) -> None:
        """Drop retained spans and aggregates; open spans survive."""
        with self._lock:
            self._spans.clear()
            self._aggregates.clear()
            self.dropped = 0

    def snapshot(self) -> Dict[str, object]:
        """Serializable snapshot: spans plus per-name aggregates."""
        with self._lock:
            return {
                "spans": [s.as_dict() for s in self._spans],
                "aggregates": [
                    self._aggregates[k].as_dict()
                    for k in sorted(self._aggregates)
                ],
                "dropped": self.dropped,
            }
