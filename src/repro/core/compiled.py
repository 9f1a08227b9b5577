"""Flat numpy views of the walking graph for fast particle operations.

The :class:`~repro.graph.WalkingGraph` is an object graph convenient for
construction and queries; the particle filter steps thousands of particles
per second, so it works on these precompiled arrays instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph


#: Where a crosser continues: its heading key (see :class:`Crossings`)
#: and its entry offset on the new edge.
Entry = Tuple[int, float]


class CompiledGraph:
    """Array-of-structs encoding of a walking graph.

    Edges are indexed by their ``edge_id`` (which the builder assigns
    densely from 0). Polyline edges are flattened into a global leg table
    so that 2-D points for ``(edge, offset)`` pairs can be computed fully
    vectorized. :attr:`crossings` tabulates the choices at every junction
    once, per edge and direction, for the motion model's crossing walk.
    """

    def __init__(self, graph: WalkingGraph):
        self.graph = graph
        edges = sorted(graph.edges, key=lambda e: e.edge_id)
        if [e.edge_id for e in edges] != list(range(len(edges))):
            raise ValueError("edge ids must be dense, starting at 0")

        nodes = graph.nodes
        self.node_ids: List[str] = [n.node_id for n in nodes]
        self.node_index: Dict[str, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        self.node_is_room = np.array([n.is_room for n in nodes], dtype=bool)
        self.node_x = np.array([n.point.x for n in nodes])
        self.node_y = np.array([n.point.y for n in nodes])

        self.edge_length = np.array([e.length for e in edges])
        self.edge_is_door = np.array(
            [e.kind.value == "door" for e in edges], dtype=bool
        )
        self.edge_node_a = np.array(
            [self.node_index[e.node_a] for e in edges], dtype=np.int64
        )
        self.edge_node_b = np.array(
            [self.node_index[e.node_b] for e in edges], dtype=np.int64
        )

        # Adjacency: for each node, the incident edge ids.
        adjacency: List[List[int]] = [[] for _ in nodes]
        for e in edges:
            adjacency[self.node_index[e.node_a]].append(e.edge_id)
            adjacency[self.node_index[e.node_b]].append(e.edge_id)
        self.adjacency: List[np.ndarray] = [
            np.array(eids, dtype=np.int64) for eids in adjacency
        ]

        self.crossings = Crossings(self, adjacency)

        # Flatten polyline legs. leg_ptr[e] .. leg_ptr[e+1] are edge e's legs.
        leg_ptr = [0]
        sx: List[float] = []
        sy: List[float] = []
        ux: List[float] = []
        uy: List[float] = []
        cum: List[float] = []  # offset at which each leg starts
        leg_len: List[float] = []
        for e in edges:
            consumed = 0.0
            for seg in e.path.segments:
                length = seg.length
                if length <= 1e-12:
                    continue
                sx.append(seg.a.x)
                sy.append(seg.a.y)
                ux.append((seg.b.x - seg.a.x) / length)
                uy.append((seg.b.y - seg.a.y) / length)
                cum.append(consumed)
                leg_len.append(length)
                consumed += length
            leg_ptr.append(len(sx))
        self.leg_ptr = np.array(leg_ptr, dtype=np.int64)
        self.leg_sx = np.array(sx)
        self.leg_sy = np.array(sy)
        self.leg_ux = np.array(ux)
        self.leg_uy = np.array(uy)
        self.leg_cum = np.array(cum)
        self.leg_len = np.array(leg_len)
        # For points(): column j holds each edge's (j + 1)-th leg-end
        # threshold, +inf where the edge has no leg after it. consumed grows
        # by positive lengths, so an edge's thresholds never decrease and
        # the ones an offset exceeds are a prefix: their count is how far
        # a leg-by-leg walk would advance from the edge's first leg.
        n_legs = np.diff(self.leg_ptr)
        ends = np.full((max(int(n_legs.max(initial=0)) - 1, 0), len(edges)), np.inf)
        for e, (first, count) in enumerate(zip(leg_ptr, n_legs.tolist())):
            if count > 1:
                legs = slice(first, first + count - 1)
                ends[: count - 1, e] = self.leg_cum[legs] + self.leg_len[legs] + 1e-12
        self._leg_ends: List[np.ndarray] = list(ends)
        # One row per leg field, so points() gathers them in one call.
        self._legs = np.stack(
            [self.leg_cum, self.leg_len, self.leg_sx, self.leg_sy, self.leg_ux, self.leg_uy]
        )

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.edge_length)

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self.node_ids)

    def points(self, edge: np.ndarray, offset: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """2-D coordinates of ``(edge, offset)`` particle positions.

        Fully vectorized: a particle's leg is its edge's first leg plus the
        number of the edge's earlier leg ends (``leg_cum + leg_len +
        1e-12``) its offset lies past; its leg's start, length and
        direction then come from one gather of the packed leg table.
        """
        leg = self.leg_ptr[edge]
        for ends in self._leg_ends:
            leg = leg + (offset > ends[edge])
        cum, length, sx, sy, ux, uy = self._legs.take(leg, axis=1)
        local = (offset - cum).clip(0.0, length)
        x = sx + ux * local
        y = sy + uy * local
        return x, y


class Crossings:
    """What a particle meets at the far end of its edge, per heading.

    A heading is an edge and a direction, encoded as the key ``2 * edge +
    (direction > 0)``. The lists below are indexed by key:

    * :attr:`far` — the offset of the node the heading runs into (the
      edge's length, or 0.0), and :attr:`sign` — the direction;
    * :attr:`length` — the edge's length;
    * :attr:`forced` — the one :data:`Entry` a crosser continues on, or
      ``None`` when the node is a room (it dwells there, :attr:`room`)
      or offers a choice;
    * :attr:`doors` and :attr:`hallways` — the pools of entries a
      crosser draws from, each in adjacency order.

    This is the motion model's junction law, derived from the node's
    incident edges (``adjacency``): the arrival edge is excluded (no
    U-turns) unless the node is a dead end, and one remaining edge is
    forced; otherwise the door and hallway edges form the pools.

    The same law as arrays, for the walk's array passes: :attr:`far_array`,
    :attr:`sign_array`, :attr:`length_array` and :attr:`room_array`
    mirror the lists. Row ``key`` of :attr:`pools` lists the entry keys a
    crosser can take: the door pool then the hallway pool, or the forced
    entry alone (counted as a hallway pool of one), padded with 0;
    :attr:`door_count` and :attr:`hallway_count` size the two pools. An
    entry's offset is ``far_array[entry ^ 1]``: 0.0 heading forward, the
    length heading back.
    """

    def __init__(self, compiled: "CompiledGraph", adjacency: List[List[int]]) -> None:
        lengths: List[float] = compiled.edge_length.tolist()
        node_a: List[int] = compiled.edge_node_a.tolist()
        node_b: List[int] = compiled.edge_node_b.tolist()
        is_room: List[bool] = compiled.node_is_room.tolist()
        is_door: List[bool] = compiled.edge_is_door.tolist()

        def entry(edge: int, node: int) -> Entry:
            if node_a[edge] == node:
                return 2 * edge + 1, 0.0
            return 2 * edge, lengths[edge]

        self.far: List[float] = []
        self.sign: List[int] = []
        self.length: List[float] = []
        self.room: List[bool] = []
        self.forced: List[Optional[Entry]] = []
        self.doors: List[List[Entry]] = []
        self.hallways: List[List[Entry]] = []
        for edge, length in enumerate(lengths):
            for forward in (False, True):
                node = node_b[edge] if forward else node_a[edge]
                self.far.append(length if forward else 0.0)
                self.sign.append(1 if forward else -1)
                self.length.append(length)
                self.room.append(is_room[node])
                onward = [] if is_room[node] else adjacency[node]
                if len(onward) > 1:
                    onward = [e for e in onward if e != edge]
                if len(onward) == 1:
                    self.forced.append(entry(onward[0], node))
                    onward = []
                else:
                    self.forced.append(None)
                self.doors.append([entry(e, node) for e in onward if is_door[e]])
                self.hallways.append([entry(e, node) for e in onward if not is_door[e]])

        pools = [
            [forced[0]] if forced is not None else [key for key, _ in doors + hallways]
            for forced, doors, hallways in zip(self.forced, self.doors, self.hallways)
        ]
        width = max([1, *map(len, pools)])
        self.far_array = np.array(self.far)
        self.sign_array = np.array(self.sign, dtype=np.int8)
        self.length_array = np.array(self.length)
        self.room_array = np.array(self.room, dtype=bool)
        self.pools = np.array([pool + [0] * (width - len(pool)) for pool in pools], dtype=np.int64)
        self.door_count = np.array([len(doors) for doors in self.doors], dtype=np.int64)
        self.hallway_count = np.array(
            [len(pool) - len(doors) for pool, doors in zip(pools, self.doors)], dtype=np.int64
        )


class CompiledAnchors:
    """Anchor coordinates as arrays, for vectorized nearest-anchor snaps.

    :meth:`nearest` snaps ``(edge, offset)`` positions through a candidate
    table keyed by (edge, offset bin), one bin per ``anchor_index.spacing``
    meters of edge. A row lists, in ascending anchor index, every anchor
    that can be nearest to some point of its stretch of edge, so the
    argmin over a row — ties included — equals the argmin over all
    anchors. The table is built on the first snap, not here, so building
    a backend stays as cheap as before.
    """

    #: Slack (meters) on the candidate bound; it absorbs the rounding of
    #: computed positions and distances, which is many orders smaller.
    CANDIDATE_SLACK = 1e-6

    #: How many ``(n, w)`` prefix-sum tables :meth:`uniform_sums` keeps.
    MAX_UNIFORM_SUMS = 32

    def __init__(self, anchor_index: AnchorIndex, compiled_graph: CompiledGraph):
        self.anchor_index = anchor_index
        self.compiled_graph = compiled_graph
        anchors = anchor_index.anchors
        self.ap_ids = np.array([a.ap_id for a in anchors], dtype=np.int64)
        self.x = np.array([a.point.x for a in anchors])
        self.y = np.array([a.point.y for a in anchors])
        self._table: Optional[_CandidateTable] = None
        self._uniform_sums: Dict[Tuple[int, float], List[float]] = {}

    def nearest(self, edge: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Ids of the anchor nearest to each ``(edge, offset)`` position.

        Each position is compared only with its (edge, bin) row of
        candidates, by the same squared-distance expression a full
        distance matrix would use, so the result is identical to it.
        """
        if self._table is None:
            self._table = _CandidateTable(self)
        table = self._table
        px, py = self.compiled_graph.points(edge, offset)
        bins = np.minimum(
            np.maximum(np.floor(offset / table.spacing), 0.0), table.last_bin[edge]
        )
        rows = table.candidates[table.row_ptr[edge] + bins.astype(np.int64)]
        # dx * dx + dy * dy, in place: the same roundings, fewer temporaries.
        dx = table.x[rows]
        np.subtract(px[:, None], dx, out=dx)
        dx *= dx
        dy = table.y[rows]
        np.subtract(py[:, None], dy, out=dy)
        dy *= dy
        dx += dy
        best = np.argmin(dx, axis=1)
        return self.ap_ids[rows[np.arange(len(rows)), best]]

    def uniform_sums(self, n: int, w: float) -> List[float]:
        """``S[k] = np.full(k, w).sum()`` for ``k = 0 .. n``.

        numpy sums pairwise, so ``S[k]`` is bit-identical to the sum of
        any ``k`` particles that all weigh ``w`` — which a running sum
        (``k * w`` or ``cumsum``) is not, for about half of all ``k``
        when ``n`` is not a power of two.
        """
        key = (n, w)
        sums = self._uniform_sums.get(key)
        if sums is None:
            if len(self._uniform_sums) >= self.MAX_UNIFORM_SUMS:
                self._uniform_sums.clear()
            sums = [float(np.full(k, w).sum()) for k in range(n + 1)]
            self._uniform_sums[key] = sums
        return sums


class _CandidateTable:
    """Per-(edge, offset bin) rows of the anchors that can be nearest.

    Row ``row_ptr[e] + b`` covers offsets ``[b * s, (b + 1) * s]`` of edge
    ``e`` (``s`` the anchor spacing; the first and last bins extend to the
    edge's ends). Let ``U`` be the smallest, over all anchors, of the
    largest distance from that anchor to the stretch; the nearest anchor of
    any point on the stretch is then at most ``U`` away, so every anchor
    whose minimum distance to the stretch is at most ``U`` (plus
    :attr:`CompiledAnchors.CANDIDATE_SLACK`) is kept. Rows are padded with
    a sentinel anchor at infinity; an edge with no legs gets every anchor.
    """

    #: Rows computed per vectorized block; bounds the temporaries' size.
    BLOCK_ROWS = 32

    def __init__(self, anchors: CompiledAnchors) -> None:
        graph = anchors.compiled_graph
        spacing = float(anchors.anchor_index.spacing)
        n_bins = np.maximum(1, np.ceil(graph.edge_length / spacing).astype(np.int64))
        row_edge = np.repeat(np.arange(graph.num_edges), n_bins)
        row_bin = _ranks(n_bins)
        # Each row's legs, padded (``real`` false) to the most legs of any edge.
        first = graph.leg_ptr[row_edge]
        n_legs = graph.leg_ptr[row_edge + 1] - first
        slot = np.arange(max(int(n_legs.max()), 1))
        real = slot < n_legs[:, None]
        legs = np.minimum(first[:, None] + slot, len(graph.leg_len) - 1)
        last = legs[np.arange(len(legs)), np.maximum(n_legs - 1, 0)]
        # Bin stretches; the first and last extend to the edge's ends, and
        # lo is clamped so a bin past the legs' rounded end keeps its end.
        end = graph.leg_cum[last] + graph.leg_len[last]
        lo = np.where(row_bin == 0, -np.inf, np.minimum(row_bin * spacing, end))
        hi = np.where(row_bin == n_bins[row_edge] - 1, np.inf, (row_bin + 1) * spacing)
        blocks = [
            slice(r, r + self.BLOCK_ROWS) for r in range(0, len(row_edge), self.BLOCK_ROWS)
        ]
        keep = np.concatenate(
            [_block_candidates(anchors, lo[b], hi[b], legs[b], real[b]) for b in blocks]
        )
        keep[n_legs == 0] = True

        # Rows in ascending anchor index, padded with the sentinel.
        counts = keep.sum(axis=1)
        rows, cols = np.nonzero(keep)
        self.candidates = np.full((len(keep), int(counts.max())), len(anchors.ap_ids))
        self.candidates[rows, _ranks(counts)] = cols
        self.spacing = spacing
        self.row_ptr = np.cumsum(n_bins) - n_bins
        self.last_bin = (n_bins - 1).astype(np.float64)
        self.x = np.append(anchors.x, np.inf)
        self.y = np.append(anchors.y, np.inf)


def _block_candidates(
    anchors: CompiledAnchors,
    lo: np.ndarray,
    hi: np.ndarray,
    legs: np.ndarray,
    real: np.ndarray,
) -> np.ndarray:
    """``(rows, anchors)`` mask of the anchors each row keeps.

    Row ``i`` is the stretch of offsets ``lo[i] .. hi[i]`` over legs
    ``legs[i]`` (``real[i]`` marks the legs that are not padding).
    """
    graph = anchors.compiled_graph
    lo, hi = lo[:, None], hi[:, None]
    start, length = graph.leg_cum[legs], graph.leg_len[legs]
    # The stretch's part of each leg, clamped as CompiledGraph.points clamps.
    meets = (real & (lo <= start + length) & (hi >= start))[:, :, None]
    a = np.clip(lo - start, 0.0, length)[:, :, None]
    b = np.clip(hi - start, 0.0, length)[:, :, None]
    sx, sy = graph.leg_sx[legs][:, :, None], graph.leg_sy[legs][:, :, None]
    ux, uy = graph.leg_ux[legs][:, :, None], graph.leg_uy[legs][:, :, None]
    ax, ay = sx + ux * a, sy + uy * a
    t = np.minimum(np.maximum((anchors.x - ax) * ux + (anchors.y - ay) * uy, 0.0), b - a)
    segment = _squared(anchors.x - (ax + ux * t), anchors.y - (ay + uy * t))
    # Distance along a segment is convex, so its maximum is at a vertex.
    vertex = np.maximum(
        _squared(anchors.x - ax, anchors.y - ay),
        _squared(anchors.x - (sx + ux * b), anchors.y - (sy + uy * b)),
    )
    min_sq = np.where(meets, segment, np.inf).min(axis=1)
    max_sq = np.where(meets, vertex, 0.0).max(axis=1)
    bound = np.sqrt(max_sq.min(axis=1, keepdims=True)) + CompiledAnchors.CANDIDATE_SLACK
    return min_sq <= bound * bound


def _squared(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dx * dx + dy * dy


def _ranks(counts: np.ndarray) -> np.ndarray:
    """``0 .. c - 1`` for each group size ``c`` in ``counts``, concatenated."""
    return np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
