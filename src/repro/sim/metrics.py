"""Accuracy metrics (paper Section 5.1).

Three metrics, exactly as the paper's evaluation:

1. **KL divergence** for range queries — distance between the ground
   truth result distribution and a probabilistic method's result
   distribution (Eq. 7). The paper does not spell out how a result set
   becomes a distribution; we use: ground truth P uniform over the true
   result set; method Q = per-object in-window probabilities, epsilon
   smoothed over the object universe and normalized. Lower is better.
2. **kNN average hit rate** — overlap of the returned object set with the
   true kNN set, divided by k.
3. **Top-k success rate** — fraction of objects whose true location
   "matches" one of the k most probable anchor points of the
   reconstructed distribution; a match means the true position lies
   within ``tolerance`` meters of the anchor (see DESIGN.md).
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence, Set

from repro.geometry import Point
from repro.graph.anchors import AnchorIndex


def kl_divergence(
    p: Mapping[str, float], q: Mapping[str, float], epsilon: float = 1e-12
) -> float:
    """``D_KL(P || Q) = sum_i P(i) ln(P(i) / Q(i))`` (paper Eq. 7).

    Terms with ``P(i) = 0`` contribute nothing; ``Q`` entries are floored
    at ``epsilon`` so the sum is always finite. Inputs need not be
    normalized — they are normalized here.
    """
    p_total = sum(p.values())
    q_total = sum(q.values())
    if p_total <= 0:
        raise ValueError("P must have positive total mass")
    if q_total <= 0:
        raise ValueError("Q must have positive total mass")
    divergence = 0.0
    for key, p_mass in p.items():
        if p_mass <= 0:
            continue
        p_norm = p_mass / p_total
        q_norm = max(q.get(key, 0.0) / q_total, epsilon)
        divergence += p_norm * math.log(p_norm / q_norm)
    return divergence


def range_query_kl(
    true_set: Set[str],
    result_probabilities: Mapping[str, float],
    universe: Iterable[str],
    epsilon: float = 0.01,
) -> Optional[float]:
    """KL divergence of one range query result against ground truth.

    For every object, the ground truth is the point distribution "in the
    window" while the probabilistic result is Bernoulli with the reported
    in-window probability ``q_i``; their KL divergence is ``ln(1/q_i)``.
    The query's divergence is the mean over the true result set::

        D = (1/|GT|) sum_{i in GT} ln( 1 / clip(q_i, epsilon, 1) )

    A perfect result scores 0; a totally missed object costs
    ``ln(1/epsilon)``; the symbolic model's diluted probabilities (the
    same mass spread over a whole reachable region) score between the
    two. This per-object construction is flat in the population size,
    matching the paper's Figure 12(a).

    Returns None when the true result set is empty (the paper averages
    over queries, which we interpret as queries with non-empty ground
    truth). ``universe`` is accepted for interface stability; the metric
    only reads the true objects' probabilities. The terms are summed in
    ascending object id, so the value does not depend on the process's
    string-hash order.
    """
    del universe
    if not true_set:
        return None
    total = 0.0
    for object_id in sorted(true_set):
        q = min(max(result_probabilities.get(object_id, 0.0), epsilon), 1.0)
        total += math.log(1.0 / q)
    return total / len(true_set)


def knn_hit_rate(returned: Iterable[str], true_knn: Sequence[str]) -> float:
    """``|returned ∩ trueKNN| / |trueKNN|``.

    The paper counts "the hit rates of the results returned by the two
    probabilistic methods over the ground truth result set".
    """
    true_set = set(true_knn)
    if not true_set:
        raise ValueError("true kNN set must not be empty")
    hits = len(true_set.intersection(set(returned)))
    return hits / len(true_set)


def top_k_success(
    distribution: Mapping[int, float],
    true_position: Point,
    anchor_index: AnchorIndex,
    k: int,
    tolerance: float = 2.0,
) -> bool:
    """Whether the true location matches the top-k predicted anchors.

    The k highest-probability anchors of the reconstructed distribution
    are compared against the true position; success means at least one of
    them lies within ``tolerance`` meters (ties at the k-th probability
    break by anchor id for determinism).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not distribution:
        return False
    ranked = sorted(distribution.items(), key=lambda item: (-item[1], item[0]))
    for ap_id, _ in ranked[:k]:
        anchor = anchor_index.anchor(ap_id)
        if anchor.point.distance_to(true_position) <= tolerance:
            return True
    return False


def mean_of(values: Iterable[Optional[float]]) -> Optional[float]:
    """Mean over the non-None entries (None when all are None/empty)."""
    cleaned = [v for v in values if v is not None]
    if not cleaned:
        return None
    return sum(cleaned) / len(cleaned)
