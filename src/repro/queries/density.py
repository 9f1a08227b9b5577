"""Zone density queries: expected object counts per region.

A generalization of range queries that facility dashboards want: the
expected number of objects per room (or per arbitrary zone), computed
from the same filtered ``APtoObjHT`` table the other query types use.
Expectations are additive over objects, so the per-zone expected count
is just the sum of per-object in-zone probabilities (Algorithm 3 per
zone).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analytics.regions import RegionMap
from repro.floorplan.plan import FloorPlan
from repro.geometry import Rect
from repro.graph.anchors import AnchorIndex
from repro.index.hashtable import AnchorObjectTable
from repro.queries.range_query import evaluate_range_query
from repro.queries.types import RangeQuery


@lru_cache(maxsize=8)
def _region_map_for(plan: FloorPlan, anchor_index: AnchorIndex) -> RegionMap:
    """One precomputed anchor→room map per (plan, index) pair."""
    return RegionMap(plan, anchor_index)


@dataclass(frozen=True)
class ZoneDensity:
    """Expected occupancy of one zone."""

    zone_id: str
    expected_count: float
    top_objects: tuple

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.zone_id}: E[count]={self.expected_count:.2f}"


def zone_densities(
    zones: Mapping[str, Rect],
    plan: FloorPlan,
    anchor_index: AnchorIndex,
    table: AnchorObjectTable,
    top_n: int = 3,
) -> List[ZoneDensity]:
    """Expected object count per zone, sorted densest first."""
    results: List[ZoneDensity] = []
    for zone_id, window in zones.items():
        answer = evaluate_range_query(
            RangeQuery(zone_id, window), plan, anchor_index, table
        )
        expected = sum(answer.probabilities.values())
        results.append(
            ZoneDensity(
                zone_id=zone_id,
                expected_count=expected,
                top_objects=tuple(answer.top(top_n)),
            )
        )
    results.sort(key=lambda z: (-z.expected_count, z.zone_id))
    return results


def room_densities(
    plan: FloorPlan,
    anchor_index: AnchorIndex,
    table: AnchorObjectTable,
    top_n: int = 3,
) -> List[ZoneDensity]:
    """Expected occupancy of every room of the plan.

    One :meth:`~repro.analytics.regions.RegionMap.fold_table` of the
    table through the precomputed anchor→room map — no per-room range
    query, no anchor rescans. A live
    :class:`~repro.analytics.engine.AnalyticsEngine` answers
    ``room_densities`` with this function over its last table.
    """
    region_map = _region_map_for(plan, anchor_index)
    fold = region_map.fold_table(table)
    membership: Dict[str, List[Tuple[str, float]]] = {
        room_id: [] for room_id in region_map.room_ids()
    }
    for object_id, mass in fold.mass.items():
        for region, value in mass.items():
            if region in membership:
                membership[region].append((object_id, value))
    results: List[ZoneDensity] = []
    for room_id, members in membership.items():
        members.sort(key=lambda item: (-item[1], item[0]))
        results.append(
            ZoneDensity(
                zone_id=room_id,
                expected_count=fold.occupancy[room_id],
                top_objects=tuple(members[:top_n]),
            )
        )
    results.sort(key=lambda z: (-z.expected_count, z.zone_id))
    return results


def busiest_zone(
    zones: Mapping[str, Rect],
    plan: FloorPlan,
    anchor_index: AnchorIndex,
    table: AnchorObjectTable,
) -> Optional[ZoneDensity]:
    """The densest zone, or None when ``zones`` is empty."""
    ranked = zone_densities(zones, plan, anchor_index, table)
    return ranked[0] if ranked else None


def total_expected_objects(densities: Mapping[str, float]) -> float:
    """Sum of expected counts over disjoint zones (sanity helper)."""
    return sum(densities.values())
