"""Immutable 2-D point."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple


@dataclass(frozen=True, order=True, slots=True)
class Point:
    """A point in the plane, in meters.

    Points are immutable and hashable so that they can key dictionaries
    (e.g. the anchor-point hash table ``APtoObjHT`` keys entries by anchor
    coordinates, exactly as the paper describes in Section 4.2).
    """

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt for comparisons)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def manhattan_distance_to(self, other: "Point") -> float:
        """L1 distance to ``other``."""
        return abs(self.x - other.x) + abs(self.y - other.y)

    def translated(self, dx: float, dy: float) -> "Point":
        """Return a copy shifted by ``(dx, dy)``."""
        return Point(self.x + dx, self.y + dy)

    def lerp(self, other: "Point", t: float) -> "Point":
        """Linear interpolation: ``self`` at ``t=0``, ``other`` at ``t=1``."""
        return Point(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )

    def midpoint(self, other: "Point") -> "Point":
        """The point halfway between ``self`` and ``other``."""
        return self.lerp(other, 0.5)

    def as_tuple(self) -> Tuple[float, float]:
        """Return ``(x, y)``."""
        return (self.x, self.y)

    def is_close(self, other: "Point", tol: float = 1e-9) -> bool:
        """True if both coordinates match within ``tol``."""
        return abs(self.x - other.x) <= tol and abs(self.y - other.y) <= tol

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Point({self.x:g}, {self.y:g})"
