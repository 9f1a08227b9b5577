"""Cells and the RFID reader deployment graph (paper Sections 3.3, 2.1).

A *cell* is a maximal connected region of the walking graph that an
object can traverse without being detected by any reader. Cells are
computed by carving every reader's covered intervals out of the graph
edges and taking connected components of what remains. The deployment
graph then connects cells that share a partitioning device.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader
from repro.symbolic.devices import DeviceType

_EPS = 1e-9

Interval = Tuple[float, float]


@dataclass
class Cell:
    """One deployment-graph cell: free intervals of walking-graph edges."""

    cell_id: int
    pieces: Dict[int, List[Interval]] = field(default_factory=dict)

    @property
    def total_length(self) -> float:
        """Summed length of all free intervals in the cell."""
        return sum(hi - lo for intervals in self.pieces.values() for lo, hi in intervals)

    def contains(self, edge_id: int, offset: float) -> bool:
        """True if ``(edge_id, offset)`` lies in this cell."""
        for lo, hi in self.pieces.get(edge_id, ()):  # noqa: B905
            if lo - _EPS <= offset <= hi + _EPS:
                return True
        return False


class DeploymentGraph:
    """Cells plus device classification and adjacency."""

    def __init__(
        self,
        graph: WalkingGraph,
        readers: Sequence[RFIDReader],
        cells: List[Cell],
        reader_cells: Dict[str, Set[int]],
        covered_intervals: Dict[int, List[Tuple[float, float, str]]],
        directed_pairs: Dict[str, str],
    ):
        self.graph = graph
        self.readers = {r.reader_id: r for r in readers}
        self.cells = cells
        self._reader_cells = reader_cells
        self._covered = covered_intervals
        self._directed_pairs = dict(directed_pairs)

    # ------------------------------------------------------------------
    def cell_of(self, edge_id: int, offset: float) -> Optional[Cell]:
        """The cell containing a graph position, or None if reader-covered."""
        for cell in self.cells:
            if cell.contains(edge_id, offset):
                return cell
        return None

    def covering_readers(self, edge_id: int, offset: float) -> List[str]:
        """Readers whose activation range covers a graph position."""
        return [
            reader_id
            for lo, hi, reader_id in self._covered.get(edge_id, ())
            if lo - _EPS <= offset <= hi + _EPS
        ]

    def cells_adjacent_to(self, reader_id: str) -> Set[int]:
        """Ids of cells bordering a reader's covered region."""
        return set(self._reader_cells.get(reader_id, set()))

    def device_type(self, reader_id: str) -> DeviceType:
        """Classify a device (paper Section 3.3)."""
        if reader_id in self._directed_pairs:
            return DeviceType.DIRECTED_PARTITIONING
        if len(self._reader_cells.get(reader_id, set())) >= 2:
            return DeviceType.UNDIRECTED_PARTITIONING
        return DeviceType.PRESENCE

    def directed_partner(self, reader_id: str) -> Optional[str]:
        """The paired device of a directed partitioning device."""
        return self._directed_pairs.get(reader_id)


def build_deployment_graph(
    graph: WalkingGraph,
    readers: Sequence[RFIDReader],
    directed_pairs: Optional[Dict[str, str]] = None,
) -> DeploymentGraph:
    """Carve reader coverage out of the graph and build cells."""
    directed_pairs = dict(directed_pairs or {})
    readers = list(readers)

    covered: Dict[int, List[Tuple[float, float, str]]] = {}
    for edge in graph.edges:
        spans: List[Tuple[float, float, str]] = []
        consumed = 0.0
        for seg in edge.path.segments:
            for reader in readers:
                overlap = reader.detection_circle.segment_overlap(seg)
                if overlap is not None and overlap[1] - overlap[0] > _EPS:
                    spans.append(
                        (consumed + overlap[0], consumed + overlap[1], reader.reader_id)
                    )
            consumed += seg.length
        if spans:
            covered[edge.edge_id] = sorted(spans)

    # Free intervals per edge: the complement of merged coverage.
    free: Dict[int, List[Interval]] = {}
    for edge in graph.edges:
        merged = _merge_intervals(
            [(lo, hi) for lo, hi, _ in covered.get(edge.edge_id, [])]
        )
        free[edge.edge_id] = _complement(merged, edge.length)

    # Union-find over free intervals: intervals sharing an uncovered node
    # endpoint belong to one cell.
    interval_ids: Dict[Tuple[int, int], int] = {}
    parents: List[int] = []

    def find(x: int) -> int:
        while parents[x] != x:
            parents[x] = parents[parents[x]]
            x = parents[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parents[rb] = ra

    for edge_id, intervals in free.items():
        for index in range(len(intervals)):
            interval_ids[(edge_id, index)] = len(parents)
            parents.append(len(parents))

    node_touching: Dict[str, List[int]] = {}
    for edge in graph.edges:
        for index, (lo, hi) in enumerate(free[edge.edge_id]):
            uid = interval_ids[(edge.edge_id, index)]
            if lo <= _EPS:
                node_touching.setdefault(edge.node_a, []).append(uid)
            if hi >= edge.length - _EPS:
                node_touching.setdefault(edge.node_b, []).append(uid)
    for uids in node_touching.values():
        for other in uids[1:]:
            union(uids[0], other)

    roots: Dict[int, Cell] = {}
    for (edge_id, index), uid in interval_ids.items():
        root = find(uid)
        if root not in roots:
            roots[root] = Cell(cell_id=len(roots))
        roots[root].pieces.setdefault(edge_id, []).append(free[edge_id][index])
    cells = sorted(roots.values(), key=lambda c: c.cell_id)
    for cell in cells:
        for intervals in cell.pieces.values():
            intervals.sort()

    # Reader -> adjacent cells: cells owning a free interval that borders
    # one of the reader's covered intervals on the same edge.
    cell_lookup: Dict[Tuple[int, int], int] = {}
    for cell in cells:
        for edge_id, intervals in cell.pieces.items():
            for index, _ in enumerate(intervals):
                original_index = free[edge_id].index(intervals[index])
                cell_lookup[(edge_id, original_index)] = cell.cell_id

    reader_cells: Dict[str, Set[int]] = {r.reader_id: set() for r in readers}
    for edge in graph.edges:
        spans = covered.get(edge.edge_id, [])
        intervals = free[edge.edge_id]
        for lo, hi, reader_id in spans:
            for index, (f_lo, f_hi) in enumerate(intervals):
                borders = abs(f_hi - lo) < 1e-6 or abs(f_lo - hi) < 1e-6
                if borders:
                    reader_cells[reader_id].add(cell_lookup[(edge.edge_id, index)])

    return DeploymentGraph(graph, readers, cells, reader_cells, covered, directed_pairs)


def anchor_cells(
    deployment: DeploymentGraph, anchor_index: AnchorIndex
) -> Dict[int, Optional[int]]:
    """Map each anchor to its cell id (None for reader-covered anchors)."""
    mapping: Dict[int, Optional[int]] = {}
    for ap in anchor_index:
        cell = deployment.cell_of(ap.location.edge_id, ap.location.offset)
        mapping[ap.ap_id] = cell.cell_id if cell is not None else None
    return mapping


def _merge_intervals(intervals: List[Interval]) -> List[Interval]:
    """Union of possibly-overlapping intervals."""
    merged: List[Interval] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1] + _EPS:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _complement(merged: List[Interval], length: float) -> List[Interval]:
    """The uncovered intervals of ``[0, length]``."""
    result: List[Interval] = []
    cursor = 0.0
    for lo, hi in merged:
        if lo - cursor > _EPS:
            result.append((cursor, lo))
        cursor = max(cursor, hi)
    if length - cursor > _EPS:
        result.append((cursor, length))
    return result
