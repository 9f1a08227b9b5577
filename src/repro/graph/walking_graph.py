"""Construction of and queries over the indoor walking graph.

``build_walking_graph`` turns a :class:`~repro.floorplan.FloorPlan` into a
:class:`WalkingGraph`:

* every hallway centerline becomes a chain of HALLWAY edges, broken at
  hallway endpoints, centerline intersections with other hallways, and
  door attachment points;
* every room becomes a ROOM node at the room center, connected to its
  hallway by a two-leg DOOR edge (centerline point -> door -> center).

The graph also owns the *shortest network distance* metric used by the
paper's kNN queries: node-to-node distances are precomputed with Dijkstra
and arbitrary location-to-location distances are composed from edge
offsets plus node distances.

The Dijkstra searches follow networkx 3.x's heap order, ``(distance,
counter, node)`` with neighbours in edge-insertion order, so distances,
dict order and tie-broken paths match what networkx computes on the same
graph bit for bit. Simulated routes, and through them every generated
world, depend on those tie-breaks.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Dict, Iterable, List, Optional, Tuple

from repro.geometry import Point, Polyline, Segment
from repro.floorplan.plan import FloorPlan
from repro.graph.location import GraphLocation
from repro.graph.model import Edge, EdgeKind, Node, NodeKind

_COORD_QUANTUM = 1e-6


class WalkingGraph:
    """The indoor walking graph ``G<N, E>`` over a floor plan."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge], floorplan: FloorPlan):
        self._nodes: Dict[str, Node] = {n.node_id: n for n in nodes}
        self._edges: Dict[int, Edge] = {e.edge_id: e for e in edges}
        self.floorplan = floorplan

        self._adjacency: Dict[str, List[int]] = {nid: [] for nid in self._nodes}
        for edge in self._edges.values():
            self._adjacency[edge.node_a].append(edge.edge_id)
            self._adjacency[edge.node_b].append(edge.edge_id)

        self._room_nodes: Dict[str, str] = {
            node.room_id: node.node_id
            for node in self._nodes.values()
            if node.kind is NodeKind.ROOM
        }
        self._door_edges: Dict[str, int] = {
            edge.room_id: edge.edge_id
            for edge in self._edges.values()
            if edge.kind is EdgeKind.DOOR
        }

        #: ``{node: {neighbour: (length, edge_id)}}``; when two nodes are
        #: doubly connected the shortest edge wins, in its first slot.
        self._neighbours: Dict[str, Dict[str, Tuple[float, int]]] = {
            nid: {} for nid in self._nodes
        }
        for edge in self._edges.values():
            existing = self._neighbours[edge.node_a].get(edge.node_b)
            if existing is None or edge.length < existing[0]:
                link = (edge.length, edge.edge_id)
                self._neighbours[edge.node_a][edge.node_b] = link
                self._neighbours[edge.node_b][edge.node_a] = link

        self._validate()
        self._node_dist: Dict[str, Dict[str, float]] = {
            node_id: self._dijkstra(node_id) for node_id in self._nodes
        }

    # ------------------------------------------------------------------
    # structure accessors
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes."""
        return list(self._nodes.values())

    @property
    def edges(self) -> List[Edge]:
        """All edges."""
        return list(self._edges.values())

    @property
    def total_edge_length(self) -> float:
        """Sum of all edge lengths."""
        return sum(e.length for e in self._edges.values())

    def node(self, node_id: str) -> Node:
        """Look up a node by id."""
        return self._nodes[node_id]

    def edge(self, edge_id: int) -> Edge:
        """Look up an edge by id."""
        return self._edges[edge_id]

    def has_node(self, node_id: str) -> bool:
        """True if ``node_id`` exists."""
        return node_id in self._nodes

    def degree(self, node_id: str) -> int:
        """Number of incident edges."""
        return len(self._adjacency[node_id])

    def incident_edges(self, node_id: str) -> List[Edge]:
        """Edges touching ``node_id``."""
        return [self._edges[eid] for eid in self._adjacency[node_id]]

    def room_node(self, room_id: str) -> str:
        """The node id of a room's center node."""
        return self._room_nodes[room_id]

    def room_ids(self) -> List[str]:
        """Ids of all rooms that have a node in the graph."""
        return list(self._room_nodes.keys())

    def door_edge(self, room_id: str) -> Edge:
        """The DOOR edge connecting ``room_id`` to its hallway."""
        return self._edges[self._door_edges[room_id]]

    def hallway_edges(self) -> List[Edge]:
        """All HALLWAY edges."""
        return [e for e in self._edges.values() if e.kind is EdgeKind.HALLWAY]

    # ------------------------------------------------------------------
    # geometry <-> graph conversions
    # ------------------------------------------------------------------
    def point_of(self, loc: GraphLocation) -> Point:
        """The 2-D point of a graph location."""
        return self._edges[loc.edge_id].point_at(loc.offset)

    def node_location(self, node_id: str) -> GraphLocation:
        """A canonical :class:`GraphLocation` for a node."""
        edge = self._edges[self._adjacency[node_id][0]]
        return GraphLocation(edge.edge_id, edge.offset_of(node_id))

    def locate(self, p: Point) -> Tuple[GraphLocation, float]:
        """Project an arbitrary 2-D point onto the nearest edge.

        Returns ``(location, distance)``. This implements the paper's
        "the query point is approximated to the nearest edge of the indoor
        walking graph" (Section 4.6).
        """
        best: Optional[GraphLocation] = None
        best_dist = float("inf")
        for edge in self._edges.values():
            offset, dist = edge.project(p)
            if dist < best_dist:
                best_dist = dist
                best = GraphLocation(edge.edge_id, offset)
        assert best is not None, "graph has no edges"
        return best, best_dist

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def node_distance(self, node_a: str, node_b: str) -> float:
        """Shortest network distance between two nodes."""
        try:
            return self._node_dist[node_a][node_b]
        except KeyError:
            return float("inf")

    def distance(self, a: GraphLocation, b: GraphLocation) -> float:
        """Shortest network distance between two graph locations.

        This is the paper's *minimum indoor walking distance*: the shortest
        path along the walking graph.
        """
        edge_a = self._edges[a.edge_id]
        edge_b = self._edges[b.edge_id]
        candidates: List[float] = []
        if a.edge_id == b.edge_id:
            candidates.append(abs(a.offset - b.offset))
        ends_a = ((edge_a.node_a, a.offset), (edge_a.node_b, edge_a.length - a.offset))
        ends_b = ((edge_b.node_a, b.offset), (edge_b.node_b, edge_b.length - b.offset))
        for node_a, off_a in ends_a:
            for node_b, off_b in ends_b:
                candidates.append(off_a + self.node_distance(node_a, node_b) + off_b)
        return min(candidates)

    def distance_to_node(self, loc: GraphLocation, node_id: str) -> float:
        """Shortest network distance from a location to a node."""
        edge = self._edges[loc.edge_id]
        return min(
            loc.offset + self.node_distance(edge.node_a, node_id),
            edge.length - loc.offset + self.node_distance(edge.node_b, node_id),
        )

    def shortest_node_path(self, node_a: str, node_b: str) -> List[str]:
        """Node sequence of a shortest path (Dijkstra on edge lengths).

        A bidirectional search that alternates forward and backward
        expansions, as networkx's ``bidirectional_dijkstra`` does, so
        that equal-length paths break ties the same way.
        """
        for node_id in (node_a, node_b):
            if node_id not in self._neighbours:
                raise KeyError(f"node {node_id!r} is not in the walking graph")
        if node_a == node_b:
            return [node_a]
        dists: List[Dict[str, float]] = [{}, {}]
        preds: List[Dict[str, Optional[str]]] = [{node_a: None}, {node_b: None}]
        seen: List[Dict[str, float]] = [{node_a: 0}, {node_b: 0}]
        counter = count()
        fringe: List[List[Tuple[float, int, str]]] = [
            [(0, next(counter), node_a)], [(0, next(counter), node_b)]
        ]
        best: Optional[float] = None
        meet = node_a
        direction = 1
        while fringe[0] and fringe[1]:
            direction = 1 - direction
            dist, _, v = heappop(fringe[direction])
            if v in dists[direction]:
                continue
            dists[direction][v] = dist
            if v in dists[1 - direction]:
                forward = _trace(preds[0], meet)
                forward.reverse()
                return forward + _trace(preds[1], preds[1][meet])
            for w, (length, _) in self._neighbours[v].items():
                through = dist + length
                if w in dists[direction]:
                    continue
                if w not in seen[direction] or through < seen[direction][w]:
                    seen[direction][w] = through
                    heappush(fringe[direction], (through, next(counter), w))
                    preds[direction][w] = v
                    if w in seen[1 - direction]:
                        total = through + seen[1 - direction][w]
                        if best is None or best > total:
                            best, meet = total, w
        raise ValueError(f"no path between {node_a!r} and {node_b!r}")  # pragma: no cover

    def connecting_edge(self, node_a: str, node_b: str) -> Edge:
        """The (shortest) edge directly joining two adjacent nodes."""
        link = self._neighbours.get(node_a, {}).get(node_b)
        if link is None:
            raise ValueError(f"nodes {node_a!r} and {node_b!r} are not adjacent")
        return self._edges[link[1]]

    # ------------------------------------------------------------------
    def _dijkstra(self, source: str) -> Dict[str, float]:
        """Distances from ``source`` to every node, in settling order.

        The source's own distance is the int ``0``, as in networkx.
        """
        dist: Dict[str, float] = {}
        seen: Dict[str, float] = {source: 0}
        counter = count()
        fringe: List[Tuple[float, int, str]] = [(0, next(counter), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, (length, _) in self._neighbours[v].items():
                through = d + length
                if u not in dist and (u not in seen or through < seen[u]):
                    seen[u] = through
                    heappush(fringe, (through, next(counter), u))
        return dist

    def _component_count(self) -> int:
        """Number of connected components (stack search)."""
        unvisited = set(self._neighbours)
        components = 0
        for start in self._neighbours:
            if start not in unvisited:
                continue
            components += 1
            unvisited.discard(start)
            stack = [start]
            while stack:
                for u in self._neighbours[stack.pop()]:
                    if u in unvisited:
                        unvisited.discard(u)
                        stack.append(u)
        return components

    def _validate(self) -> None:
        if not self._edges:
            raise ValueError("walking graph has no edges")
        components = self._component_count()
        if components != 1:
            raise ValueError(
                f"walking graph must be connected; found {components} components"
            )
        for edge in self._edges.values():
            if edge.length <= 0:
                raise ValueError(f"edge {edge.edge_id} has non-positive length")
            start_ok = edge.path.start.is_close(
                self._nodes[edge.node_a].point, tol=1e-6
            )
            end_ok = edge.path.end.is_close(self._nodes[edge.node_b].point, tol=1e-6)
            if not (start_ok and end_ok):
                raise ValueError(
                    f"edge {edge.edge_id} path does not join its endpoint nodes"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WalkingGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def build_walking_graph(plan: FloorPlan) -> WalkingGraph:
    """Build the walking graph of a floor plan."""
    registry = _NodeRegistry()

    # 1. Hallway stations: endpoints, centerline intersections, doors.
    stations: Dict[str, List[float]] = {}
    for hallway in plan.hallways:
        offsets = [0.0, hallway.length]
        for other in plan.hallways:
            if other.hallway_id == hallway.hallway_id:
                continue
            crossing = _centerline_intersection(
                hallway.centerline, other.centerline
            )
            if crossing is not None:
                offset, dist = hallway.project(crossing)
                if dist < 1e-6:
                    offsets.append(offset)
        for door in plan.doors:
            if door.hallway_id == hallway.hallway_id:
                offset, _ = hallway.project(door.hallway_point)
                offsets.append(offset)
        stations[hallway.hallway_id] = _dedupe_sorted(offsets)

    # 2. Hallway edges between consecutive stations.
    edges: List[Edge] = []
    edge_counter = 0
    for hallway in plan.hallways:
        offs = stations[hallway.hallway_id]
        for lo, hi in zip(offs, offs[1:]):
            a = registry.hallway_node(hallway.point_at(lo))
            b = registry.hallway_node(hallway.point_at(hi))
            if a == b:
                continue
            edges.append(
                Edge(
                    edge_id=edge_counter,
                    node_a=a,
                    node_b=b,
                    path=Polyline.from_points(
                        [hallway.point_at(lo), hallway.point_at(hi)]
                    ),
                    kind=EdgeKind.HALLWAY,
                    hallway_id=hallway.hallway_id,
                )
            )
            edge_counter += 1

    # 3. Door spurs into rooms.
    for room in plan.rooms:
        door = room.door
        attach = registry.hallway_node(door.hallway_point)
        room_node = registry.room_node(room.room_id, room.center)
        path = Polyline.from_points([door.hallway_point, door.position, room.center])
        edges.append(
            Edge(
                edge_id=edge_counter,
                node_a=attach,
                node_b=room_node,
                path=path,
                kind=EdgeKind.DOOR,
                room_id=room.room_id,
            )
        )
        edge_counter += 1

    return WalkingGraph(registry.nodes, edges, plan)


class _NodeRegistry:
    """Deduplicates nodes by quantized coordinates during construction."""

    def __init__(self) -> None:
        self._by_point: Dict[Tuple[int, int], str] = {}
        self._nodes: List[Node] = []
        self._counter = 0

    @property
    def nodes(self) -> List[Node]:
        return self._nodes

    def hallway_node(self, point: Point) -> str:
        key = self._key(point)
        if key in self._by_point:
            return self._by_point[key]
        node_id = f"n{self._counter}"
        self._counter += 1
        self._nodes.append(Node(node_id, point, NodeKind.HALLWAY))
        self._by_point[key] = node_id
        return node_id

    def room_node(self, room_id: str, point: Point) -> str:
        node_id = f"room:{room_id}"
        self._nodes.append(Node(node_id, point, NodeKind.ROOM, room_id=room_id))
        # Room centers are never shared, but register the point anyway so a
        # malformed plan fails loudly in graph validation instead of silently
        # merging nodes.
        self._by_point.setdefault(self._key(point), node_id)
        return node_id

    @staticmethod
    def _key(point: Point) -> Tuple[int, int]:
        return (
            int(round(point.x / _COORD_QUANTUM)),
            int(round(point.y / _COORD_QUANTUM)),
        )


def _trace(preds: Dict[str, Optional[str]], node: Optional[str]) -> List[str]:
    """Nodes from ``node`` back along ``preds`` to the search's root."""
    path: List[str] = []
    while node is not None:
        path.append(node)
        node = preds[node]
    return path


def _centerline_intersection(s1: Segment, s2: Segment) -> Optional[Point]:
    """Intersection point of two axis-aligned centerlines, if any.

    Handles perpendicular crossings and endpoint touches. Collinear
    overlapping centerlines are rejected (plans should merge those into a
    single hallway).
    """
    if s1.is_horizontal and s2.is_vertical:
        h, v = s1, s2
    elif s1.is_vertical and s2.is_horizontal:
        h, v = s2, s1
    else:
        # Parallel: only endpoint touches are meaningful.
        for p in (s2.a, s2.b):
            if s1.distance_to_point(p) < 1e-9:
                return p
        return None
    x = v.a.x
    y = h.a.y
    h_lo, h_hi = sorted((h.a.x, h.b.x))
    v_lo, v_hi = sorted((v.a.y, v.b.y))
    eps = 1e-9
    if h_lo - eps <= x <= h_hi + eps and v_lo - eps <= y <= v_hi + eps:
        return Point(x, y)
    return None


def _dedupe_sorted(offsets: List[float], tol: float = 1e-6) -> List[float]:
    """Sort offsets and merge values closer than ``tol``."""
    result: List[float] = []
    for value in sorted(offsets):
        if not result or value - result[-1] > tol:
            result.append(value)
    return result
