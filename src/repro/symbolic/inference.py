"""Symbolic model-based location inference (paper Section 3.3).

The probability model of Yang et al.: an object's location is uniformly
distributed over all possible locations. The cases implemented here:

* **Case 1** — the object is currently observed by reader ``d``: uniform
  over the anchor points inside ``d``'s activation range.
* **Cases 2/4** — the object left device ``d``: it lies in one of the
  cells bordering ``d`` (a presence device keeps it in its single cell;
  an undirected partitioning device allows either side), restricted to
  anchor points within walking distance ``u_max * (t_now - t_last) +
  d.range`` of ``d`` (the maximum-speed constraint).
* **Case 3** — directed partitioning pairs narrow Cases 2/4 to the cell
  the reading order implies (supported when the deployment declares
  entry/exit pairs; the paper's evaluation deployment has none).

"Uniformly distributed over all possible locations" means uniform over
the *2-D area* of the feasible region, not over anchor points: a room is
a few tens of square meters while a hallway stretch of the same walking
length is only a thin band, so most symbolic probability mass sits in
rooms. The model therefore weights each anchor by the area it represents
(room area split over the room's anchors; ``spacing x width`` for
hallway anchors) and normalizes over the feasible set. The result is an
``{anchor: probability}`` distribution — the same form the particle
filter produces — so both inference methods flow through identical query
evaluation code.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader
from repro.symbolic.cells import anchor_cells, build_deployment_graph
from repro.symbolic.devices import DeviceType


class SymbolicLocationModel:
    """Uniform-over-reachable-locations inference on the deployment graph."""

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Iterable[RFIDReader],
        config: SimulationConfig,
        directed_pairs: Optional[Dict[str, str]] = None,
    ):
        self.graph = graph
        self.anchor_index = anchor_index
        self.config = config
        readers = list(readers)
        self.readers = {r.reader_id: r for r in readers}
        self.deployment = build_deployment_graph(graph, readers, directed_pairs)
        self._anchor_cell = anchor_cells(self.deployment, anchor_index)

        # Static precomputations: per reader, the anchors it covers and the
        # network distance from the reader to every anchor.
        self._covered_anchors: Dict[str, List[int]] = {}
        self._anchor_distance: Dict[str, Dict[int, float]] = {}
        for reader in readers:
            covered = [
                ap.ap_id
                for ap in anchor_index.in_circle(reader.detection_circle)
            ]
            self._covered_anchors[reader.reader_id] = covered
            reader_loc, _ = graph.locate(reader.position)
            self._anchor_distance[reader.reader_id] = {
                ap.ap_id: graph.distance(reader_loc, ap.location)
                for ap in anchor_index
            }

        self._cell_anchors: Dict[int, List[int]] = {}
        for ap_id, cell_id in self._anchor_cell.items():
            if cell_id is not None:
                self._cell_anchors.setdefault(cell_id, []).append(ap_id)

        self._anchor_area = self._compute_anchor_areas()

    def _compute_anchor_areas(self) -> Dict[int, float]:
        """The floor area each anchor point stands for.

        Room anchors share their room's area; hallway anchors represent a
        ``spacing``-long slice of the hallway band. Anchors outside both
        (should not happen on valid plans) get a nominal ``spacing^2``.
        """
        plan = self.graph.floorplan
        spacing = self.anchor_index.spacing
        room_counts: Dict[str, int] = {}
        for ap in self.anchor_index:
            if ap.room_id is not None:
                room_counts[ap.room_id] = room_counts.get(ap.room_id, 0) + 1

        areas: Dict[int, float] = {}
        for ap in self.anchor_index:
            if ap.room_id is not None:
                areas[ap.ap_id] = (
                    plan.room(ap.room_id).area / room_counts[ap.room_id]
                )
            elif ap.hallway_id is not None:
                areas[ap.ap_id] = spacing * plan.hallway(ap.hallway_id).width
            else:
                areas[ap.ap_id] = spacing * spacing
        return areas

    # ------------------------------------------------------------------
    def infer(self, history: ReadingHistory, now: int) -> Optional[Dict[int, float]]:
        """Anchor distribution for one object, or None without readings."""
        if history.is_empty:
            return None
        reader_id = history.latest_reader_id
        last_second = history.last_second
        if now <= last_second:
            return self._uniform(self._covered_anchors[reader_id])

        feasible = self._feasible_anchors(history, now)
        if not feasible:
            # The object just left the reader's boundary: before any anchor
            # becomes reachable, the best symbolic statement is "at the
            # reader's range".
            return self._uniform(self._covered_anchors[reader_id])
        return self._uniform(sorted(feasible))

    def _feasible_anchors(self, history: ReadingHistory, now: int) -> Set[int]:
        reader_id = history.latest_reader_id
        reader = self.readers[reader_id]
        l_max = self.config.max_speed * (now - history.last_second)
        reach = l_max + reader.activation_range
        distances = self._anchor_distance[reader_id]

        cells = self._candidate_cells(history)
        feasible: Set[int] = set()
        for cell_id in cells:
            for ap_id in self._cell_anchors.get(cell_id, ()):  # noqa: B905
                if distances[ap_id] <= reach:
                    feasible.add(ap_id)
        return feasible

    def _candidate_cells(self, history: ReadingHistory) -> Set[int]:
        """Cells the object may occupy after leaving its last device."""
        reader_id = history.latest_reader_id
        adjacent = self.deployment.cells_adjacent_to(reader_id)
        device_type = self.deployment.device_type(reader_id)
        if device_type is DeviceType.DIRECTED_PARTITIONING:
            partner = self.deployment.directed_partner(reader_id)
            if partner is not None and history.previous_reader_id == partner:
                # Case 3: the pair's reading order implies the object moved
                # from the partner's side to this device's far side.
                partner_cells = self.deployment.cells_adjacent_to(partner)
                forward = adjacent - partner_cells
                if forward:
                    return forward
        return adjacent

    def _uniform(self, anchors: List[int]) -> Dict[int, float]:
        """Area-uniform distribution over a set of feasible anchors."""
        if not anchors:
            return {}
        total = sum(self._anchor_area[ap_id] for ap_id in anchors)
        return {
            ap_id: self._anchor_area[ap_id] / total for ap_id in anchors
        }
