"""Anchor-point discretization of particle sets.

Paper Algorithm 2, lines 32-36: every particle is assigned to its nearest
anchor point; an anchor holding ``n`` of the ``Ns`` particles gets
probability ``n / Ns`` (more generally, the sum of its particles'
normalized weights).

All objects filtered in one tick are snapped together: their particles
are stacked into one nearest-anchor pass and grouped by (object, anchor)
with one ``bincount``. Each mass stays bit-identical to the per-object
``weights[mask].sum() / weights.sum()``: numpy sums pairwise, so an
object whose ``N`` particles all weigh ``w`` gets ``S[k] / S[N]`` with
``S[k] = np.full(k, w).sum()``, and any other object keeps the masked
sums.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.core.compiled import CompiledAnchors
from repro.core.particles import ParticleSet


def particles_to_anchor_distribution(
    particle_sets: Sequence[ParticleSet],
    compiled_anchors: CompiledAnchors,
) -> List[Dict[int, float]]:
    """Snap every set's particles to anchors; one ``{ap_id: probability}`` each.

    Uses the particles' weights (uniform ``1/Ns`` right after resampling,
    which reduces to the paper's ``n/Ns`` counting). Keys are ascending.
    """
    distributions: List[Dict[int, float]] = [{} for _ in particle_sets]
    sizes = np.array([len(ps) for ps in particle_sets], dtype=np.int64)
    if not sizes.any():
        return distributions
    anchor_ids = compiled_anchors.nearest(
        np.concatenate([ps.edge for ps in particle_sets]),
        np.concatenate([ps.offset for ps in particle_sets]),
    )
    weights = np.concatenate([ps.weight for ps in particle_sets])
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(sizes)), sizes)
    firsts = weights[np.minimum(starts, len(weights) - 1)]
    mixed = np.bincount(owner[weights != firsts[owner]], minlength=len(sizes)) > 0

    # Particle counts per (object, anchor), object-major, anchors ascending.
    span = int(compiled_anchors.ap_ids.max()) + 1
    counts = np.bincount(owner * span + anchor_ids, minlength=len(sizes) * span)
    keys = np.flatnonzero(counts)
    bounds = np.searchsorted(keys, np.arange(len(sizes) + 1) * span).tolist()
    ap_list = (keys % span).tolist()
    count_list = counts[keys].tolist()
    for i, (n, w, is_mixed) in enumerate(
        zip(sizes.tolist(), firsts.tolist(), mixed.tolist())
    ):
        if n == 0:
            continue
        sums = None if is_mixed else compiled_anchors.uniform_sums(n, w)
        if sums is not None and 0.0 < sums[n] < math.inf:
            lo, hi = bounds[i], bounds[i + 1]
            total = sums[n]
            distributions[i] = {
                ap_id: sums[k] / total
                for ap_id, k in zip(ap_list[lo:hi], count_list[lo:hi])
            }
        else:
            distributions[i] = _masked_sums(
                particle_sets[i].weight, anchor_ids[starts[i] : starts[i] + n]
            )
    return distributions


def _masked_sums(weights: np.ndarray, anchor_ids: np.ndarray) -> Dict[int, float]:
    """One object's masses by a masked sum per anchor (any weights)."""
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        weights = np.full(len(weights), 1.0 / len(weights))
        total = 1.0

    distribution: Dict[int, float] = {}
    for ap_id in np.unique(anchor_ids):
        mass = float(weights[anchor_ids == ap_id].sum() / total)
        if mass > 0.0:
            distribution[int(ap_id)] = mass
    return distribution
