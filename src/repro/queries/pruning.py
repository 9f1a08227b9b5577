"""Query-aware optimization module (paper Section 4.3).

Filters out *non-candidate objects* — objects that cannot possibly appear
in any registered query's result — before the expensive particle
filtering step.

* Range queries: an object's *uncertain region* ``UR(o_i)`` is a circle
  centered at its last detecting device ``d`` with radius
  ``u_max * (t_now - t_last) + d.range``; if the circle misses every query
  window, the object is pruned (Euclidean test, deliberately cheaper than
  indoor walking distance).
* kNN queries: distance-based pruning with ``s_i`` / ``l_i``, the minimum
  / maximum shortest network distance from the query point to ``UR(o_i)``;
  an object whose ``s_i`` exceeds the k-th smallest ``l_i`` is pruned.

The network-distance bounds are evaluated over the anchor points inside
the uncertain region (the uncertain region restricted to the walking
graph), padded by one anchor spacing so the discretization can never
prune a true candidate. Each kNN query computes one vector of network
distances to every anchor (:meth:`AnchorIndex.network_distances`); an
object's bounds are then a min/max over its region's anchor ids, which
are memoized per region.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as obs
from repro.collector.collector import EventDrivenCollector
from repro.config import SimulationConfig
from repro.geometry import Circle, Point
from repro.graph.anchors import AnchorIndex
from repro.graph.location import GraphLocation
from repro.graph.walking_graph import WalkingGraph
from repro.queries.types import KNNQuery, RangeQuery
from repro.rfid.reader import RFIDReader


def uncertain_region(
    reader: RFIDReader, last_second: int, now: int, max_speed: float
) -> Circle:
    """``UR(o_i)``: where an object last seen at ``reader`` can be now."""
    if now < last_second:
        raise ValueError(
            f"query time {now} precedes last detection {last_second}"
        )
    l_max = max_speed * (now - last_second)
    return Circle(reader.position, l_max + reader.activation_range)


class QueryAwareOptimizer:
    """Candidate filtering for registered range and kNN queries."""

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Dict[str, RFIDReader],
        config: SimulationConfig,
    ):
        self.graph = graph
        self.anchor_index = anchor_index
        self.readers = dict(readers)
        self.config = config
        #: Anchor ids per uncertain region, filled lazily by
        #: :meth:`region_anchor_ids`.
        self._region_ids: Dict[Circle, np.ndarray] = {}
        #: Per region centre, the smallest radius seen whose circle holds
        #: every anchor; any larger circle there holds them all too.
        self._saturation: Dict[Point, float] = {}
        self._all_ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def candidates(
        self,
        collector: EventDrivenCollector,
        now: int,
        range_queries: Sequence[RangeQuery] = (),
        knn_queries: Sequence[KNNQuery] = (),
    ) -> Set[str]:
        """The union of candidate sets over all registered queries."""
        with obs.span("prune.candidates"):
            result: Set[str] = set()
            objects = collector.observed_objects()
            regions = self._uncertain_regions(collector, objects, now)
            if range_queries:
                result |= self.range_candidates(regions, range_queries)
            for query in knn_queries:
                result |= self.knn_candidates(regions, query)
        if obs.enabled():
            # Pruning effectiveness (paper §4.3): of the objects the
            # collector has seen, how many survived into the candidate
            # set that particle filtering must process?
            obs.add("prune.rounds")
            obs.add("prune.objects_seen", len(regions))
            obs.add("prune.candidates_kept", len(result))
            obs.add("prune.objects_pruned", len(regions) - len(result))
        return result

    def _uncertain_regions(
        self, collector: EventDrivenCollector, objects: Iterable[str], now: int
    ) -> Dict[str, Circle]:
        regions: Dict[str, Circle] = {}
        for object_id in objects:
            detection = collector.last_detection(object_id)
            if detection is None:
                continue
            reader_id, last_second = detection
            regions[object_id] = uncertain_region(
                self.readers[reader_id], last_second, now, self.config.max_speed
            )
        return regions

    # ------------------------------------------------------------------
    def range_candidates(
        self, regions: Dict[str, Circle], queries: Sequence[RangeQuery]
    ) -> Set[str]:
        """Objects whose uncertain region overlaps at least one window."""
        return {
            object_id
            for object_id, region in regions.items()
            if any(region.intersects_rect(q.window) for q in queries)
        }

    def knn_candidates(
        self, regions: Dict[str, Circle], query: KNNQuery
    ) -> Set[str]:
        """Distance-based pruning for one kNN query (paper Eq. 6)."""
        if not regions:
            return set()
        q_loc, _ = self.graph.locate(query.point)
        distances = self.anchor_index.network_distances(q_loc)
        bounds: Dict[str, Tuple[float, float]] = {}
        for object_id, region in regions.items():
            bound = self._distance_bounds(q_loc, query.point, region, distances)
            if bound is not None:
                bounds[object_id] = bound

        if len(bounds) <= query.k:
            return set(bounds.keys())
        l_values = sorted(hi for _, hi in bounds.values())
        f = l_values[query.k - 1]
        return {
            object_id
            for object_id, (s_i, _) in bounds.items()
            if s_i <= f
        }

    def region_anchor_ids(self, region: Circle) -> np.ndarray:
        """Ids of the anchors inside ``region``, as a read-only array.

        The ids are those of :meth:`AnchorIndex.in_circle`, memoized per
        region. Regions are centred on readers with a radius that grows
        with the time since the last detection, and ``in_circle`` only
        gains anchors as the radius grows; so once a centre's circle holds
        every anchor, every larger circle there shares one all-anchors
        array instead of adding an entry, which bounds the memo.
        """
        cached = self._region_ids.get(region)
        if cached is not None:
            return cached
        saturation = self._saturation.get(region.center)
        if saturation is not None and region.radius >= saturation:
            return self._all_ids
        ids = np.array(
            [ap.ap_id for ap in self.anchor_index.in_circle(region)], dtype=np.int64
        )
        ids.flags.writeable = False
        if len(ids) == len(self.anchor_index):
            self._saturation[region.center] = region.radius
            if self._all_ids is None:
                self._all_ids = ids
            return self._all_ids
        self._region_ids[region] = ids
        return ids

    def _distance_bounds(
        self,
        q_loc: GraphLocation,
        q_point: Point,
        region: Circle,
        distances: np.ndarray,
    ) -> Optional[Tuple[float, float]]:
        """``(s_i, l_i)`` network-distance bounds to an uncertain region.

        ``distances`` is the query location's network distance to every
        anchor (:meth:`AnchorIndex.network_distances`). ``s_i`` is floored
        by the Euclidean lower bound so that the anchor discretization can
        only loosen (never tighten) the pruning.
        """
        pad = self.anchor_index.spacing
        ids = self.region_anchor_ids(region)
        if not len(ids):
            # Degenerate region (tiny radius between anchors): fall back to
            # the nearest graph location of the region's center.
            loc, _ = self.graph.locate(region.center)
            dist = self.graph.distance(q_loc, loc)
            return dist, dist
        in_region = distances[ids]
        euclid_floor = max(q_point.distance_to(region.center) - region.radius, 0.0)
        s_i = max(float(in_region.min()) - pad, euclid_floor, 0.0)
        l_i = float(in_region.max()) + pad
        return s_i, l_i
