"""Streaming aggregate structures: fixed-bucket histograms, lazy top-k.

Both structures are O(1) per update and never rescan history — the
property the whole analytics layer is built on. Both serialize to plain
JSON-safe dicts so checkpoints resume them bit-exactly.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analytics._coerce import as_float, as_int, as_list, as_map

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


class LazyTopK:
    """Top-k keys by score, maintained from deltas via a monotone heap.

    ``update`` pushes a new heap entry and bumps the key's version; stale
    entries (older versions) are discarded lazily when :meth:`top` pops
    them. Once stale entries outnumber live keys, ``update`` rebuilds the
    heap from the live scores, so the heap never holds more than about
    twice as many entries as keys. Updates are amortized O(log n); reads
    pop at most the stale backlog once. Scores tie-break by key so the
    ranking is deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, str, int]] = []
        self._version: Dict[str, int] = {}
        self._score: Dict[str, float] = {}

    def update(self, key: str, score: float) -> None:
        """Record a key's new score (supersedes its prior entries)."""
        version = self._version.get(key, 0) + 1
        self._version[key] = version
        self._score[key] = score
        heapq.heappush(self._heap, (-score, key, version))
        if len(self._heap) > 2 * len(self._score):
            self._heap = [
                (-live, name, self._version[name]) for name, live in self._score.items()
            ]
            heapq.heapify(self._heap)

    def top(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` highest-scoring keys, compacting stale entries."""
        if k <= 0:
            return []
        result: List[Tuple[str, float]] = []
        kept: List[Tuple[float, str, int]] = []
        while self._heap and len(result) < k:
            negated, key, version = heapq.heappop(self._heap)
            if self._version.get(key) != version:
                continue  # superseded by a later update
            result.append((key, -negated))
            kept.append((negated, key, version))
        # Live entries popped for the answer go back on the heap.
        for entry in kept:
            heapq.heappush(self._heap, entry)
        return result

    def score_of(self, key: str) -> float:
        """The last recorded score for a key (0.0 when never updated)."""
        return self._score.get(key, 0.0)

    def __len__(self) -> int:
        return len(self._version)

    # -- checkpointing --------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        # Only the live score per key matters; the stale heap backlog is
        # an in-memory artifact and is rebuilt compacted on restore.
        return {"scores": dict(sorted(self._score.items()))}

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "LazyTopK":
        topk = cls()
        scores = as_map(state["scores"])
        for key in sorted(scores):
            topk.update(str(key), as_float(scores[key]))
        return topk
