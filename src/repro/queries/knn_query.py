"""Indoor kNN query evaluation (paper Algorithm 4).

Starting from the query point (approximated onto its nearest walking-graph
edge), anchor points are visited in ascending order of shortest network
distance, accumulating each visited anchor's indexed object probabilities,
until the total probability reaches ``k``. The returned set
``{(o_1, p_1), ...}`` has ``sum(p_i) >= k`` and at least ``k`` objects;
``p_i`` is the probability that ``o_i`` is in the kNN result.

The expansion is implemented as a Dijkstra search over the chain of
anchors along edges (node anchors bridge edges), which visits anchors in
exactly the ascending-distance order of the paper's per-frontier-segment
expansion while handling cycles and branches uniformly.

The visiting order depends on the query point alone, so it is compiled
into a :class:`KNNPlan`: the located seed anchors plus a resumable
Dijkstra that remembers every anchor it has popped. The table pass walks
that order and extends the search only when a table's running total
needs more anchors. A standing query keeps its plan across ticks;
:func:`evaluate_knn_query` builds one and runs it once, doing the same
heap work as a one-off search.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

import repro.obs as obs
from repro.graph.anchors import AnchorIndex
from repro.graph.location import GraphLocation
from repro.graph.walking_graph import WalkingGraph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.types import KNNQuery, KNNResult

_KNN_LABELS = {"kind": "knn"}


class KNNPlan:
    """The table-independent half of Algorithm 4 for one query point.

    :attr:`order` holds the anchors popped so far, in ascending network
    distance (ties by anchor id, as the heap breaks them). The search is
    extended one anchor at a time, and an anchor's neighbours are pushed
    only when the anchor after it is asked for — exactly the pushes and
    pops of a search that stops once its total reaches ``k``.
    """

    __slots__ = ("query", "location", "order", "_distances", "_expanded",
                 "_heap", "_visited", "_adjacency")

    def __init__(
        self,
        query: KNNQuery,
        location: GraphLocation,
        seeds: List[Tuple[float, int]],
        adjacency: Dict[int, List[Tuple[int, float]]],
    ) -> None:
        self.query = query
        #: The query point located on the walking graph; query-aware
        #: pruning reads it instead of locating the point again.
        self.location = location
        self.order: List[int] = []
        self._distances: List[float] = []
        self._expanded = 0
        self._heap: List[Tuple[float, int]] = []
        for seed in seeds:
            heapq.heappush(self._heap, seed)
        self._visited: Set[int] = set()
        self._adjacency = adjacency

    @classmethod
    def build(
        cls, query: KNNQuery, graph: WalkingGraph, anchor_index: AnchorIndex
    ) -> "KNNPlan":
        """Locate the query point and seed the search from its edge."""
        location, _ = graph.locate(query.point)
        plan = cls(query, location, _seed_anchors(location, anchor_index),
                   anchor_index.neighbors())
        obs.add("query.plans_built", labels=_KNN_LABELS)
        return plan

    def _extend(self) -> bool:
        """Pop the next-nearest anchor onto :attr:`order`; False when none is left."""
        order, distances, heap, visited = (
            self.order, self._distances, self._heap, self._visited
        )
        while self._expanded < len(order):
            ap_id = order[self._expanded]
            distance = distances[self._expanded]
            for neighbor, gap in self._adjacency[ap_id]:
                if neighbor not in visited:
                    heapq.heappush(heap, (distance + gap, neighbor))
            self._expanded += 1
        while heap:
            distance, ap_id = heapq.heappop(heap)
            if ap_id in visited:
                continue
            visited.add(ap_id)
            order.append(ap_id)
            distances.append(distance)
            return True
        return False

    def answer(self, table: AnchorObjectTable) -> KNNResult:
        """The table pass: accumulate anchors in order until the total reaches k."""
        result = KNNResult(self.query.query_id)
        probabilities = result.probabilities
        k = self.query.k
        order = self.order
        total = 0.0
        index = 0
        while index < len(order) or self._extend():
            for object_id, probability in table.items_at(order[index]):
                probabilities[object_id] = (
                    probabilities.get(object_id, 0.0) + probability
                )
                total += probability
            if total >= k:
                break
            index += 1
        return result


def evaluate_knn_query(
    query: KNNQuery,
    graph: WalkingGraph,
    anchor_index: AnchorIndex,
    table: AnchorObjectTable,
    *,
    compiled: Optional[KNNPlan] = None,
) -> KNNResult:
    """Evaluate one kNN query over the filtered ``APtoObjHT`` table.

    ``compiled`` is a :class:`KNNPlan` built earlier for this query (a
    standing query keeps one); without it the plan is built here.
    """
    if compiled is None:
        compiled = KNNPlan.build(query, graph, anchor_index)
    return compiled.answer(table)


def _seed_anchors(
    q_loc: GraphLocation, anchor_index: AnchorIndex
) -> List[Tuple[float, int]]:
    """The anchors bracketing the located query point on its edge."""
    ordered = anchor_index.on_edge(q_loc.edge_id)
    offsets = [off for off, _ in ordered]
    pos = bisect_left(offsets, q_loc.offset)

    seeds: Dict[int, float] = {}
    for index in (pos - 1, pos):
        if 0 <= index < len(ordered):
            offset, ap_id = ordered[index]
            gap = abs(offset - q_loc.offset)
            if ap_id not in seeds or gap < seeds[ap_id]:
                seeds[ap_id] = gap
    return [(gap, ap_id) for ap_id, gap in seeds.items()]
