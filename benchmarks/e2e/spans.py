"""In-memory span tracer that wraps public callables on live objects.

The traced run never edits the system's code. It replaces public
callables with timing wrappers, either as instance attributes of the live
objects (which shadow the class method for that one object) or as module
attributes where a layer is reached through a module-level function, and
puts every original back in :meth:`Tracer.restore`.

Each call records one span: name, start, end, parent span and trace id
(the tick or query the harness was serving). Spans are kept in compact
arrays and written to a JSON trace file when the run ends. A layer's
*self time* is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Tuple

TRACE_FORMAT = "repro-e2e-trace"
ROOT_PREFIX = "op."

_clock = time.perf_counter


class Tracer:
    """Stack-based span recorder for one single-threaded traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.traces: List[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.trace_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._trace = -1
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_of.append(name_id)
        self.parent_of.append(stack[-1] if stack else -1)
        self.trace_of.append(self._trace)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(_clock())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    @contextmanager
    def root(self, kind: str, trace_id: str) -> Iterator[None]:
        """One harness operation (tick, query, checkpoint): a root span."""
        if self._stack:
            raise RuntimeError("root spans cannot nest")
        self._trace = len(self.traces)
        self.traces.append(trace_id)
        index = self._open(self._name_id(ROOT_PREFIX + kind))
        try:
            yield
        finally:
            self._close(index)
            self._trace = -1

    # ------------------------------------------------------------------
    def wrap(self, target: Any, attr: str, name: str, optional: bool = False) -> None:
        """Replace ``target.attr`` with a wrapper that records a span.

        ``optional`` lets a wrap target that a refactor may legitimately
        remove (an alias, say) go missing without failing the run.
        """
        if optional and not hasattr(target, attr):
            return
        original: Callable[..., Any] = getattr(target, attr)
        name_id = self._name_id(name)
        open_span, close_span = self._open, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(index)

        # Instance attributes that only shadow a class method are deleted
        # on restore; module attributes and plain instance attributes
        # (like a stored resampler function) get their original back.
        shadowed = not isinstance(target, ModuleType) and attr not in vars(target)
        self._patches.append((target, attr, original, shadowed))
        setattr(target, attr, traced)

    def restore(self) -> None:
        """Put every wrapped callable back (reverse order, idempotent)."""
        while self._patches:
            target, attr, original, shadowed = self._patches.pop()
            if shadowed:
                delattr(target, attr)
            else:
                setattr(target, attr, original)

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, Tuple[float, float, int]]:
        """``{name: (self seconds, inclusive seconds, calls)}`` over all spans."""
        count = len(self.start)
        child = [0.0] * count
        start, end, parent_of = self.start, self.end, self.parent_of
        for index in range(count):
            parent = parent_of[index]
            if parent >= 0:
                child[parent] += end[index] - start[index]
        totals: Dict[str, List[float]] = {}
        for index in range(count):
            duration = end[index] - start[index]
            row = totals.setdefault(self.names[self.name_of[index]], [0.0, 0.0, 0])
            row[0] += duration - child[index]
            row[1] += duration
            row[2] += 1
        return {name: (row[0], row[1], int(row[2])) for name, row in totals.items()}

    def count_under(self, name: str, parent_name: str) -> int:
        """How many ``name`` spans have a direct parent named ``parent_name``."""
        name_id = self._name_ids.get(name)
        parent_id = self._name_ids.get(parent_name)
        if name_id is None or parent_id is None:
            return 0
        return sum(
            1
            for index in range(len(self.start))
            if self.name_of[index] == name_id
            and self.parent_of[index] >= 0
            and self.name_of[self.parent_of[index]] == parent_id
        )

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans as one columnar JSON document.

        Times are integer microseconds from the first span's start; the
        ``name``/``trace`` columns index the ``names``/``traces`` tables and
        ``parent`` is a span index (-1 for a root).
        """
        origin = self.start[0] if len(self.start) else 0.0
        document = {
            "format": TRACE_FORMAT,
            "version": 1,
            **meta,
            "clock": "time.perf_counter, microseconds from the first span",
            "names": self.names,
            "traces": self.traces,
            "spans": {
                "name": list(self.name_of),
                "parent": list(self.parent_of),
                "trace": list(self.trace_of),
                "start_us": [round((t - origin) * 1e6) for t in self.start],
                "end_us": [round((t - origin) * 1e6) for t in self.end],
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))
            handle.write("\n")
