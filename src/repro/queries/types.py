"""Query and result records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.geometry import Point, Rect


@dataclass(frozen=True)
class RangeQuery:
    """A snapshot indoor range query: find objects inside ``window``."""

    query_id: str
    window: Rect


@dataclass(frozen=True)
class KNNQuery:
    """A snapshot indoor kNN query from ``point``.

    The query point is approximated to the nearest walking-graph edge
    during evaluation (paper Section 4.6).
    """

    query_id: str
    point: Point
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class RangeResult:
    """Probabilistic range query answer: object -> P(object in window)."""

    query_id: str
    probabilities: Dict[str, float] = field(default_factory=dict)

    def top(self, n: int) -> List[Tuple[str, float]]:
        """The ``n`` most probable objects."""
        ranked = sorted(
            self.probabilities.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:n]

    def objects(self) -> List[str]:
        """All objects with non-zero probability."""
        return [obj for obj, p in self.probabilities.items() if p > 0.0]


@dataclass
class KNNResult:
    """Probabilistic kNN answer: ``{(o1, p1), ...}`` with ``sum(p) >= k``.

    ``p_i`` is the probability that ``o_i`` belongs to the kNN result set
    (paper Section 4.6.2).
    """

    query_id: str
    probabilities: Dict[str, float] = field(default_factory=dict)

    @property
    def total_probability(self) -> float:
        """Accumulated mass over all returned objects."""
        return sum(self.probabilities.values())

    def ranked(self) -> List[Tuple[str, float]]:
        """Objects by descending probability (ties break by id)."""
        return sorted(
            self.probabilities.items(), key=lambda item: (-item[1], item[0])
        )

    def top(self, n: int) -> List[str]:
        """The ``n`` most probable object ids (the max-probability set)."""
        return [obj for obj, _ in self.ranked()[:n]]

    def objects(self) -> List[str]:
        """All returned object ids."""
        return list(self.probabilities.keys())

    def above_threshold(self, threshold: float) -> List[str]:
        """Objects whose membership probability is at least ``threshold``.

        This is the result form of a probabilistic threshold kNN query
        (PTkNN, Yang et al. — the paper's reference [30]): the objects
        with probability of belonging to the kNN set above ``T``.
        """
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        return [
            obj for obj, p in self.ranked() if p >= threshold
        ]
