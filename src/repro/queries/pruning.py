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
prune a true candidate. They read the network distances from the query
point to every anchor that the query's
:class:`~repro.queries.knn_query.KNNPlan` computed once, the same vector
Algorithm 4 walks; a region's bounds are then a min/max over its anchor
ids, which are memoized per region, and every region of a round is
bounded in one ``reduceat`` pass over their concatenated ids.

Objects last seen by the same reader in the same second share one
uncertain region, so each distinct region is built, range-tested and
bounded once per round, however many objects share it.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

import repro.obs as obs
from repro.collector.collector import EventDrivenCollector
from repro.config import SimulationConfig
from repro.geometry import Circle, Point
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.queries.knn_query import KNNPlan
from repro.queries.types import RangeQuery
from repro.rfid.reader import RFIDReader

#: Each distinct uncertain region, with the objects whose region it is.
Regions = List[Tuple[Circle, List[str]]]


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
        *,
        knn_plans: Sequence[KNNPlan] = (),
    ) -> Set[str]:
        """The union of candidate sets over all registered queries.

        Each of ``knn_plans`` brings its kNN query with the network
        distances its plan already computed.
        """
        with obs.span("prune.candidates"):
            result: Set[str] = set()
            objects = collector.observed_objects()
            regions = self._uncertain_regions(collector, objects, now)
            if range_queries:
                result |= self.range_candidates(regions, range_queries)
            for plan in knn_plans:
                result |= self.knn_candidates(regions, plan)
        if obs.enabled():
            # Pruning effectiveness (paper §4.3): of the objects the
            # collector has seen, how many survived into the candidate
            # set that particle filtering must process?
            seen = sum(len(members) for _, members in regions)
            obs.add("prune.rounds")
            obs.add("prune.objects_seen", seen)
            obs.add("prune.candidates_kept", len(result))
            obs.add("prune.objects_pruned", seen - len(result))
        return result

    def _uncertain_regions(
        self, collector: EventDrivenCollector, objects: Iterable[str], now: int
    ) -> Regions:
        """Each distinct uncertain region and the objects that share it.

        Objects last seen by the same reader in the same second share one
        region, so it is built (and later tested) once for all of them.
        """
        by_detection: Dict[Tuple[str, int], List[str]] = {}
        last_detection = collector.last_detection
        for object_id in objects:
            detection = last_detection(object_id)
            if detection is None:
                continue
            members = by_detection.get(detection)
            if members is None:
                by_detection[detection] = [object_id]
            else:
                members.append(object_id)
        readers, max_speed = self.readers, self.config.max_speed
        return [
            (uncertain_region(readers[reader_id], last_second, now, max_speed), members)
            for (reader_id, last_second), members in by_detection.items()
        ]

    # ------------------------------------------------------------------
    def range_candidates(
        self, regions: Regions, queries: Sequence[RangeQuery]
    ) -> Set[str]:
        """Objects whose uncertain region overlaps at least one window."""
        windows = [query.window for query in queries]
        result: Set[str] = set()
        for region, members in regions:
            for window in windows:
                if region.intersects_rect(window):
                    result.update(members)
                    break
        return result

    def knn_candidates(self, regions: Regions, plan: KNNPlan) -> Set[str]:
        """Distance-based pruning for one kNN query's plan (paper Eq. 6)."""
        if not regions:
            return set()
        k = plan.query.k
        bounds = list(zip(
            self._distance_bounds(plan, [region for region, _ in regions]),
            [members for _, members in regions],
        ))
        if sum(len(members) for _, members in bounds) <= k:
            f = math.inf
        else:
            # f: the k-th smallest l_i over objects, each region counted
            # once per object that shares it.
            ranked = sorted(bounds, key=lambda bound: bound[0][1])
            counts = accumulate(len(members) for _, members in ranked)
            f = next(l_i for ((_, l_i), _), n in zip(ranked, counts) if n >= k)
        result: Set[str] = set()
        for (s_i, _), members in bounds:
            if s_i <= f:
                result.update(members)
        return result

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
        self, plan: KNNPlan, regions: Sequence[Circle]
    ) -> List[Tuple[float, float]]:
        """``(s_i, l_i)`` network-distance bounds to each uncertain region.

        They are read from the plan's network distance to every anchor
        (:attr:`KNNPlan.distances`). The regions' anchor ids are gathered
        in one concatenation and each region's min and max taken by one
        ``reduceat`` each; a region holding every anchor reads the whole
        vector's min and max instead. ``s_i`` is floored by the Euclidean
        lower bound so that the anchor discretization can only loosen
        (never tighten) the pruning.
        """
        q_loc, q_point, distances = plan.location, plan.query.point, plan.distances
        pad = self.anchor_index.spacing
        region_ids = [self.region_anchor_ids(region) for region in regions]
        all_ids = self._all_ids
        parts = [ids for ids in region_ids if len(ids) and ids is not all_ids]
        lows: Iterator[float] = iter(())
        highs: Iterator[float] = iter(())
        if parts:
            starts = [0, *accumulate(len(ids) for ids in parts[:-1])]
            gathered = distances[parts[0] if len(parts) == 1 else np.concatenate(parts)]
            lows = iter(np.minimum.reduceat(gathered, starts).tolist())
            highs = iter(np.maximum.reduceat(gathered, starts).tolist())
        everywhere: Optional[Tuple[float, float]] = None
        bounds: List[Tuple[float, float]] = []
        for region, ids in zip(regions, region_ids):
            if not len(ids):
                # Degenerate region (tiny radius between anchors): fall
                # back to the nearest graph location of the region's center.
                loc, _ = self.graph.locate(region.center)
                dist = self.graph.distance(q_loc, loc)
                bounds.append((dist, dist))
                continue
            if ids is all_ids:
                if everywhere is None:
                    everywhere = (float(distances.min()), float(distances.max()))
                low, high = everywhere
            else:
                low, high = next(lows), next(highs)
            euclid_floor = max(q_point.distance_to(region.center) - region.radius, 0.0)
            bounds.append((max(low - pad, euclid_floor, 0.0), high + pad))
        return bounds
