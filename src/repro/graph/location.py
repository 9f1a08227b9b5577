"""Graph locations: positions constrained to walking-graph edges."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class GraphLocation:
    """A position on the walking graph: ``offset`` meters along an edge.

    The offset is measured from the edge's ``node_a``. Conversions to 2-D
    points and distances between locations are provided by
    :class:`repro.graph.WalkingGraph`, which owns the edge table.
    """

    edge_id: int
    offset: float

    def __post_init__(self) -> None:
        if self.offset < -1e-9:
            raise ValueError(f"offset must be non-negative, got {self.offset}")

    def moved_to(self, offset: float) -> "GraphLocation":
        """Same edge, new offset."""
        return GraphLocation(self.edge_id, offset)
