"""Indoor kNN query evaluation (paper Algorithm 4).

Starting from the query point (approximated onto its nearest walking-graph
edge), anchor points are visited in ascending order of shortest network
distance, accumulating each visited anchor's indexed object probabilities,
until the total probability reaches ``k``. The returned set
``{(o_1, p_1), ...}`` has ``sum(p_i) >= k`` and at least ``k`` objects;
``p_i`` is the probability that ``o_i`` is in the kNN result.

The network distance is one kernel, :meth:`AnchorIndex.network_distances`:
the query location's distance to every anchor, equal to
``graph.distance`` bit for bit. Visiting anchors in its ``(distance,
ap_id)`` order is the paper's per-frontier-segment expansion, cycles and
branches included; unreachable (infinite) anchors are never visited.

The vector and its order depend on the query point alone, so they are
compiled into a :class:`KNNPlan` once. The table pass walks the order
until its running total reaches ``k``. A standing query keeps its plan
across ticks, and query-aware pruning (paper Eq. 6) reads the same
vector; :func:`evaluate_knn_query` builds a plan and runs it once.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

import repro.obs as obs
from repro.graph.anchors import AnchorIndex
from repro.graph.location import GraphLocation
from repro.graph.walking_graph import WalkingGraph
from repro.index.hashtable import AnchorObjectTable
from repro.queries.types import KNNQuery, KNNResult

_KNN_LABELS = {"kind": "knn"}


class KNNPlan:
    """The table-independent half of Algorithm 4 for one query point.

    :attr:`distances` is the located point's network distance to every
    anchor, indexed by ``ap_id`` and read-only. :attr:`order` holds the
    ids of its finite entries in ascending ``(distance, ap_id)`` order.
    """

    __slots__ = ("query", "location", "distances", "order")

    def __init__(
        self, query: KNNQuery, location: GraphLocation, distances: np.ndarray
    ) -> None:
        self.query = query
        #: The query point located on the walking graph.
        self.location = location
        distances.flags.writeable = False
        self.distances = distances
        # A stable sort of the id-indexed vector breaks distance ties by
        # ascending ap_id; infinite entries sort last and are dropped.
        by_distance = np.argsort(distances, kind="stable")
        self.order: List[int] = by_distance[
            np.isfinite(distances[by_distance])
        ].tolist()

    @classmethod
    def build(
        cls, query: KNNQuery, graph: WalkingGraph, anchor_index: AnchorIndex
    ) -> "KNNPlan":
        """Locate the query point and order the anchors by network distance."""
        location, _ = graph.locate(query.point)
        plan = cls(query, location, anchor_index.network_distances(location))
        obs.add("query.plans_built", labels=_KNN_LABELS)
        return plan

    def answer(self, table: AnchorObjectTable) -> KNNResult:
        """The table pass: accumulate anchors in order until the total reaches k."""
        result = KNNResult(self.query.query_id)
        probabilities = result.probabilities
        k = self.query.k
        total = 0.0
        for ap_id in self.order:
            for object_id, probability in table.items_at(ap_id):
                probabilities[object_id] = (
                    probabilities.get(object_id, 0.0) + probability
                )
                total += probability
            if total >= k:
                break
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
