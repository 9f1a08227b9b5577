"""Streaming aggregate structure: the fixed-bucket histogram.

It is O(1) per update and never rescans history, and it serializes to a
plain JSON-safe dict so checkpoints resume it bit-exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analytics._coerce import as_float, as_int, as_list

#: Default dwell-time bucket upper bounds, in seconds. The last implicit
#: bucket is open-ended (``>= edges[-1]``).
DEFAULT_DWELL_EDGES: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0, 80.0, 160.0)


class StreamingHistogram:
    """Fixed-bucket histogram with exact count/total (no sample storage).

    ``edges`` are ascending bucket upper bounds; a sample lands in the
    first bucket whose edge is strictly greater than it, or in the final
    open-ended bucket. Buckets are fixed at construction, so merging and
    distance are well-defined across instances with equal edges.
    """

    def __init__(self, edges: Sequence[float] = DEFAULT_DWELL_EDGES) -> None:
        if list(edges) != sorted(edges) or len(set(edges)) != len(edges):
            raise ValueError("histogram edges must be strictly ascending")
        self.edges: Tuple[float, ...] = tuple(float(e) for e in edges)
        self.counts: List[int] = [0] * (len(self.edges) + 1)
        self.count = 0
        self.total = 0.0

    def add(self, value: float) -> None:
        """Record one sample."""
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value < edge:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += float(value)

    def mean(self) -> float:
        """Sample mean (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold another histogram (same edges) into this one."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total

    def distance(self, other: "StreamingHistogram") -> float:
        """Total-variation distance between normalized bucket masses.

        0.0 for identical shapes, 1.0 for disjoint ones. Two empty
        histograms are identical; an empty vs a non-empty one are
        maximally distant.
        """
        if other.edges != self.edges:
            raise ValueError("cannot compare histograms with different edges")
        if self.count == 0 and other.count == 0:
            return 0.0
        if self.count == 0 or other.count == 0:
            return 1.0
        gap = 0.0
        for mine, theirs in zip(self.counts, other.counts):
            gap += abs(mine / self.count - theirs / other.count)
        return gap / 2.0

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StreamingHistogram":
        histogram = cls(edges=[as_float(e) for e in as_list(state["edges"])])
        histogram.counts = [as_int(c) for c in as_list(state["counts"])]
        histogram.count = as_int(state["count"])
        histogram.total = as_float(state["total"])
        return histogram

