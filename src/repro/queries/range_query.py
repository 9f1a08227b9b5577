"""Indoor range query evaluation (paper Algorithm 3).

Anchor points are a 1-D projection of the 2-D indoor space, so summing
anchor probabilities alone would over-count: the algorithm compensates per
intersected cell —

* hallway cells: anchors within the query's span *along* the hallway are
  counted, scaled by ``w_qh / w_h`` (the fraction of the hallway width the
  window covers), because objects are equally likely anywhere across the
  width;
* room cells: all anchors of the room are counted, scaled by
  ``Area_qr / Area_R`` (objects are uniform within a room).

Along the hallway *length* each anchor stands for a ``spacing``-wide
stretch of hallway (anchors are the 1-D discretization of the
centerline), so anchors at the window boundary contribute fractionally —
the same uniform-compensation argument the paper applies across the
width, applied along the length. This removes quantization cliffs when a
window edge falls between two anchors.

Evaluation has two halves. The geometric half — which hallway spans and
rooms the window covers, each anchor's along-hallway fraction and each
cell's width or area ratio — depends on the window alone and is compiled
once into a :class:`RangePlan`. The table half sums ``APtoObjHT`` masses
over the plan's anchors. A standing query keeps its plan across ticks;
:func:`evaluate_range_query` builds one and runs it once.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import repro.obs as obs
from repro.floorplan.entities import Hallway
from repro.floorplan.plan import FloorPlan
from repro.geometry import Rect
from repro.graph.anchors import AnchorIndex
from repro.index.hashtable import AnchorObjectTable
from repro.queries.types import RangeQuery, RangeResult

_EPS_AREA = 1e-12
_RANGE_LABELS = {"kind": "range"}

#: One intersected cell: its width or area ratio and its
#: ``(ap_id, along-hallway fraction)`` entries (rooms use fraction 1.0).
PlanPart = Tuple[float, List[Tuple[int, float]]]


class RangePlan:
    """The table-independent half of Algorithm 3 for one window.

    ``parts`` lists every intersected hallway, then every intersected
    room, in floor-plan order; each part's anchors keep the order the
    per-tick loop visited them in, so :meth:`answer` performs exactly the
    same float operations, in the same order, as evaluating from scratch.
    """

    __slots__ = ("query", "parts")

    def __init__(self, query: RangeQuery, parts: List[PlanPart]) -> None:
        self.query = query
        self.parts = parts

    @classmethod
    def build(
        cls, query: RangeQuery, plan: FloorPlan, anchor_index: AnchorIndex
    ) -> "RangePlan":
        """Intersect ``query.window`` with every hallway and room of ``plan``."""
        parts: List[PlanPart] = []
        for hallway in plan.hallways:
            part = _hallway_part(query.window, hallway, anchor_index)
            if part is not None:
                parts.append(part)
        for room in plan.rooms:
            overlap = room.boundary.overlap_area(query.window)
            if overlap <= _EPS_AREA:
                continue
            entries = [(ap.ap_id, 1.0) for ap in anchor_index.in_room(room.room_id)]
            parts.append((overlap / room.area, entries))
        obs.add("query.plans_built", labels=_RANGE_LABELS)
        return cls(query, parts)

    def answer(self, table: AnchorObjectTable) -> RangeResult:
        """The table pass: scale each part's anchor masses and merge them."""
        result = RangeResult(self.query.query_id)
        probabilities = result.probabilities
        for ratio, entries in self.parts:
            partial: Dict[str, float] = {}
            for ap_id, fraction in entries:
                for object_id, probability in table.items_at(ap_id):
                    partial[object_id] = (
                        partial.get(object_id, 0.0) + probability * fraction
                    )
            for object_id, probability in partial.items():
                probabilities[object_id] = (
                    probabilities.get(object_id, 0.0) + probability * ratio
                )
        return result


def evaluate_range_query(
    query: RangeQuery,
    plan: FloorPlan,
    anchor_index: AnchorIndex,
    table: AnchorObjectTable,
    *,
    compiled: Optional[RangePlan] = None,
) -> RangeResult:
    """Evaluate one range query over the filtered ``APtoObjHT`` table.

    ``compiled`` is a :class:`RangePlan` built earlier for this query (a
    standing query keeps one); without it the plan is built here.
    """
    if compiled is None:
        compiled = RangePlan.build(query, plan, anchor_index)
    return compiled.answer(table)


def _hallway_part(
    window: Rect, hallway: Hallway, anchor_index: AnchorIndex
) -> Optional[PlanPart]:
    """The hallway's span-selected anchors with their fractions, and its width ratio."""
    band = hallway.band
    overlap = band.intersection(window)
    if overlap is None or overlap.area <= _EPS_AREA:
        return None

    half = anchor_index.spacing / 2.0
    if hallway.centerline.is_horizontal:
        ratio = overlap.height / hallway.width
        lo, hi = overlap.min_x, overlap.max_x
        axis_lo, axis_hi = band.min_x, band.max_x
        span = Rect(lo - half, band.min_y, hi + half, band.max_y)
        axis_coord = lambda ap: ap.point.x  # noqa: E731
    else:
        ratio = overlap.width / hallway.width
        lo, hi = overlap.min_y, overlap.max_y
        axis_lo, axis_hi = band.min_y, band.max_y
        span = Rect(band.min_x, lo - half, band.max_x, hi + half)
        axis_coord = lambda ap: ap.point.y  # noqa: E731

    entries: List[Tuple[int, float]] = []
    for ap in anchor_index.in_rect(span):
        if ap.hallway_id != hallway.hallway_id:
            continue
        coord = axis_coord(ap)
        # The hallway stretch this anchor stands for, clamped to the
        # hallway extent (edge-end anchors represent half cells).
        cell_lo = max(coord - half, axis_lo)
        cell_hi = min(coord + half, axis_hi)
        if cell_hi - cell_lo <= 0.0:
            continue
        covered = min(cell_hi, hi) - max(cell_lo, lo)
        fraction = min(max(covered / (cell_hi - cell_lo), 0.0), 1.0)
        if fraction <= 0.0:
            continue
        entries.append((ap.ap_id, fraction))
    return ratio, entries
