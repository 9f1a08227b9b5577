"""Resampling algorithms.

``systematic_resample`` is a direct implementation of the paper's
Algorithm 1 (the classic systematic/low-variance scheme of the SIR
filter): it builds the CDF of the weights, draws one uniform starting
point ``u1 ~ U[0, 1/Ns]``, and walks the CDF with stride ``1/Ns``.

Multinomial, stratified, and residual resampling are provided as
alternatives for the ablation benchmark (they are the standard choices in
the particle-filtering literature; see Arulampalam et al. 2002, the
paper's reference [1]).

All functions map ``(weights, n, rng)`` to an index array into the
original particle set; callers then use
:meth:`~repro.core.particles.ParticleSet.take`.
"""

from __future__ import annotations

import numpy as np

from repro.rng import RngLike, make_rng


def _validated(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("weights must have positive finite sum")
    return weights / total


def systematic_resample(weights: np.ndarray, n: int = None, rng: RngLike = None) -> np.ndarray:
    """Paper Algorithm 1: systematic resampling.

    Returns indices ``j`` such that index ``i`` appears approximately
    ``n * w_i`` times.
    """
    weights = _validated(weights)
    if n is None:
        n = len(weights)
    generator = make_rng(rng)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0  # guard against float drift
    u1 = generator.uniform(0.0, 1.0 / n)
    points = u1 + np.arange(n) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def multinomial_resample(weights: np.ndarray, n: int = None, rng: RngLike = None) -> np.ndarray:
    """Multinomial resampling: n i.i.d. draws from the weight distribution."""
    weights = _validated(weights)
    if n is None:
        n = len(weights)
    generator = make_rng(rng)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    draws = generator.random(n)
    return np.searchsorted(cdf, draws, side="left").astype(np.int64)


def stratified_resample(weights: np.ndarray, n: int = None, rng: RngLike = None) -> np.ndarray:
    """Stratified resampling: one uniform draw inside each of n strata."""
    weights = _validated(weights)
    if n is None:
        n = len(weights)
    generator = make_rng(rng)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    points = (np.arange(n) + generator.random(n)) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def residual_resample(weights: np.ndarray, n: int = None, rng: RngLike = None) -> np.ndarray:
    """Residual resampling: deterministic copies plus multinomial residue."""
    weights = _validated(weights)
    if n is None:
        n = len(weights)
    generator = make_rng(rng)
    scaled = n * weights
    copies = np.floor(scaled).astype(np.int64)
    indices = np.repeat(np.arange(len(weights)), copies)
    remainder = n - len(indices)
    if remainder > 0:
        residual = scaled - copies
        total = residual.sum()
        if total <= 0:
            extra = generator.integers(0, len(weights), size=remainder)
        else:
            cdf = np.cumsum(residual / total)
            cdf[-1] = 1.0
            extra = np.searchsorted(cdf, generator.random(remainder), side="left")
        indices = np.concatenate([indices, extra.astype(np.int64)])
    return indices[:n]


def effective_sample_size(weights: np.ndarray) -> float:
    """ESS = 1 / sum(w_i^2) for normalized weights.

    The standard degeneracy diagnostic: close to ``Ns`` when weights are
    uniform, close to 1 when one particle dominates.
    """
    weights = _validated(weights)
    return float(1.0 / np.sum(weights * weights))


RESAMPLERS = {
    "systematic": systematic_resample,
    "multinomial": multinomial_resample,
    "stratified": stratified_resample,
    "residual": residual_resample,
}
"""Registry used by the ablation benchmark and the filter constructor."""
