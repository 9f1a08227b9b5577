"""Anchor point indexing model (paper Section 4.2).

Anchor points discretize the continuous walking-graph edges: a predefined
set of points on ``E`` with a uniform spacing (1 m by default). After
particle filtering, every particle is snapped to its nearest anchor point,
so inferred object locations live on this discrete set.

``AnchorIndex`` also provides the spatial lookups the query algorithms
need: nearest anchor to a point, anchors inside a rectangle (range
queries), anchors per room, and the network distance from one location to
every anchor (the kNN order of Algorithm 4 and its pruning bounds, Eq. 6).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.geometry import Circle, Point, Rect
from repro.graph.location import GraphLocation
from repro.graph.walking_graph import WalkingGraph


@dataclass(frozen=True)
class AnchorPoint:
    """A discrete location on the walking graph.

    ``node_id`` is set for anchors that coincide with graph nodes;
    ``room_id``/``hallway_id`` record which floor plan entity contains the
    anchor (used by range-query evaluation, Algorithm 3).
    """

    ap_id: int
    point: Point
    location: GraphLocation
    node_id: Optional[str] = None
    room_id: Optional[str] = None
    hallway_id: Optional[str] = None

    @property
    def in_room(self) -> bool:
        """True when the anchor lies inside a room."""
        return self.room_id is not None


class AnchorIndex:
    """All anchor points of a graph, with spatial lookup structures."""

    def __init__(self, graph: WalkingGraph, anchors: List[AnchorPoint], spacing: float):
        self.graph = graph
        self.spacing = spacing
        self._anchors: List[AnchorPoint] = anchors
        self._by_node: Dict[str, int] = {}
        self._by_room: Dict[str, List[int]] = {}
        self._grid: Dict[Tuple[int, int], List[int]] = {}
        self._cell = max(spacing, 1e-6)

        for ap in anchors:
            if ap.node_id is not None:
                self._by_node[ap.node_id] = ap.ap_id
            if ap.room_id is not None:
                self._by_room.setdefault(ap.room_id, []).append(ap.ap_id)
            self._grid.setdefault(self._cell_of(ap.point), []).append(ap.ap_id)
        # Occupied grid extent: rectangle scans never leave it, so a huge
        # query rectangle costs no more than the whole grid.
        self._grid_lo = (min(ix for ix, _ in self._grid), min(iy for _, iy in self._grid))
        self._grid_hi = (max(ix for ix, _ in self._grid), max(iy for _, iy in self._grid))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._anchors)

    def __iter__(self) -> Iterator[AnchorPoint]:
        return iter(self._anchors)

    @property
    def anchors(self) -> List[AnchorPoint]:
        """All anchor points."""
        return list(self._anchors)

    def anchor(self, ap_id: int) -> AnchorPoint:
        """Look up an anchor by id."""
        return self._anchors[ap_id]

    def node_anchor(self, node_id: str) -> AnchorPoint:
        """The anchor coinciding with a graph node."""
        return self._anchors[self._by_node[node_id]]

    def in_room(self, room_id: str) -> List[AnchorPoint]:
        """Anchors inside a room (door-edge anchors past the door + center)."""
        return [self._anchors[i] for i in self._by_room.get(room_id, [])]

    # ------------------------------------------------------------------
    # spatial queries
    # ------------------------------------------------------------------
    def nearest(self, p: Point) -> AnchorPoint:
        """The anchor point closest to ``p`` (Euclidean)."""
        best_id = -1
        best_sq = float("inf")
        cx, cy = self._cell_of(p)
        ring = 0
        # Expand square rings until a hit is found, then one extra ring to
        # guarantee the true nearest is not in a neighbouring cell.
        extra = 0
        while True:
            found_this_ring = False
            for cell in self._ring_cells(cx, cy, ring):
                for ap_id in self._grid.get(cell, ()):  # noqa: B905
                    sq = self._anchors[ap_id].point.squared_distance_to(p)
                    if sq < best_sq:
                        best_sq = sq
                        best_id = ap_id
                        found_this_ring = True
            if best_id >= 0:
                if found_this_ring:
                    extra = 0
                else:
                    extra += 1
                if extra >= 2:
                    break
            ring += 1
            if ring > 10_000:  # pragma: no cover - defensive
                raise RuntimeError("anchor grid search did not terminate")
        return self._anchors[best_id]

    def in_rect(self, rect: Rect) -> List[AnchorPoint]:
        """All anchors inside an axis-aligned rectangle."""
        lo = self._cell_of(Point(rect.min_x, rect.min_y))
        hi = self._cell_of(Point(rect.max_x, rect.max_y))
        result: List[AnchorPoint] = []
        for ix in range(max(lo[0], self._grid_lo[0]), min(hi[0], self._grid_hi[0]) + 1):
            for iy in range(max(lo[1], self._grid_lo[1]), min(hi[1], self._grid_hi[1]) + 1):
                for ap_id in self._grid.get((ix, iy), ()):
                    ap = self._anchors[ap_id]
                    if rect.contains(ap.point):
                        result.append(ap)
        return result

    def in_circle(self, circle: Circle) -> List[AnchorPoint]:
        """All anchors inside a circle."""
        return [
            ap for ap in self.in_rect(circle.bounding_rect())
            if circle.contains(ap.point)
        ]

    def network_distances(self, loc: GraphLocation) -> np.ndarray:
        """Shortest network distance from ``loc`` to every anchor.

        A ``float64`` vector indexed by ``ap_id`` whose entries equal
        ``graph.distance(loc, anchor.location)`` bit for bit: the kernel
        forms the same four ``(off_q + D[n_q, n_ap]) + off_ap`` sums over
        the all-pairs node distances, in the same order, takes their
        minimum, and for anchors on ``loc``'s own edge also the direct
        offset gap. The node matrix and per-anchor arrays are built lazily
        on the first call and cached. This is the one network-distance
        kernel of kNN: a :class:`~repro.queries.knn_query.KNNPlan` walks
        its ``(distance, ap_id)`` order (paper Algorithm 4) and pruning
        bounds regions with it (Eq. 6).
        """
        if getattr(self, "_distance_tables", None) is None:
            self._distance_tables = self._build_distance_tables()
        node_index, dist, ap_edge, ap_a, ap_b, ap_off, ap_rem = self._distance_tables
        edge = self.graph.edge(loc.edge_id)
        q_a = node_index[edge.node_a]
        q_b = node_index[edge.node_b]
        off_a = loc.offset
        off_b = edge.length - loc.offset
        result = np.minimum(
            np.minimum((off_a + dist[q_a, ap_a]) + ap_off, (off_a + dist[q_a, ap_b]) + ap_rem),
            np.minimum((off_b + dist[q_b, ap_a]) + ap_off, (off_b + dist[q_b, ap_b]) + ap_rem),
        )
        same_edge = ap_edge == loc.edge_id
        result[same_edge] = np.minimum(
            result[same_edge], np.abs(off_a - ap_off[same_edge])
        )
        return result

    def _build_distance_tables(self) -> tuple:
        node_ids = [node.node_id for node in self.graph.nodes]
        node_index = {node_id: i for i, node_id in enumerate(node_ids)}
        dist = np.array(
            [[self.graph.node_distance(a, b) for b in node_ids] for a in node_ids],
            dtype=np.float64,
        )
        edges = [self.graph.edge(ap.location.edge_id) for ap in self._anchors]
        ap_edge = np.array([e.edge_id for e in edges], dtype=np.int64)
        ap_a = np.array([node_index[e.node_a] for e in edges], dtype=np.int64)
        ap_b = np.array([node_index[e.node_b] for e in edges], dtype=np.int64)
        ap_off = np.array([ap.location.offset for ap in self._anchors], dtype=np.float64)
        ap_rem = np.array(
            [e.length - ap.location.offset for e, ap in zip(edges, self._anchors)],
            dtype=np.float64,
        )
        return node_index, dist, ap_edge, ap_a, ap_b, ap_off, ap_rem

    # ------------------------------------------------------------------
    def _cell_of(self, p: Point) -> Tuple[int, int]:
        return (int(math.floor(p.x / self._cell)), int(math.floor(p.y / self._cell)))

    @staticmethod
    def _ring_cells(cx: int, cy: int, ring: int):
        if ring == 0:
            yield (cx, cy)
            return
        for dx in range(-ring, ring + 1):
            yield (cx + dx, cy - ring)
            yield (cx + dx, cy + ring)
        for dy in range(-ring + 1, ring):
            yield (cx - ring, cy + dy)
            yield (cx + ring, cy + dy)


def build_anchor_index(graph: WalkingGraph, spacing: float = 1.0) -> AnchorIndex:
    """Generate anchor points every ``spacing`` meters on all edges."""
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    plan = graph.floorplan
    anchors: List[AnchorPoint] = []

    def classify(point: Point) -> Tuple[Optional[str], Optional[str]]:
        room = plan.room_at(point)
        if room is not None:
            return room.room_id, None
        hallway = plan.hallway_at(point)
        if hallway is not None:
            return None, hallway.hallway_id
        return None, None

    # One anchor per node.
    for node in graph.nodes:
        room_id, hallway_id = classify(node.point)
        if node.is_room:
            room_id, hallway_id = node.room_id, None
        anchors.append(
            AnchorPoint(
                ap_id=len(anchors),
                point=node.point,
                location=graph.node_location(node.node_id),
                node_id=node.node_id,
                room_id=room_id,
                hallway_id=hallway_id,
            )
        )

    # Interior anchors along every edge.
    for edge in graph.edges:
        n_interior = int(math.floor(edge.length / spacing))
        for i in range(1, n_interior + 1):
            offset = i * spacing
            if offset >= edge.length - spacing / 2.0:
                break
            point = edge.point_at(offset)
            room_id, hallway_id = classify(point)
            anchors.append(
                AnchorPoint(
                    ap_id=len(anchors),
                    point=point,
                    location=GraphLocation(edge.edge_id, offset),
                    room_id=room_id,
                    hallway_id=hallway_id,
                )
            )

    return AnchorIndex(graph, anchors, spacing)
