"""Resampling algorithms.

``systematic_resample`` is a direct implementation of the paper's
Algorithm 1 (the classic systematic/low-variance scheme of the SIR
filter): it builds the CDF of the weights, draws one uniform starting
point ``u1 ~ U[0, 1/Ns]``, and walks the CDF with stride ``1/Ns``.

Multinomial, stratified, and residual resampling are provided as
alternatives for the resampling ablation (they are the standard choices in
the particle-filtering literature; see Arulampalam et al. 2002, the
paper's reference [1]).

All functions map ``(weights, n, uniforms)`` to an index array into the
original particle set; callers then use
:meth:`~repro.core.particles.ParticleSet.take`. ``weights`` is one 1-D
weight vector or a ``(rows, N)`` matrix; the result then has one row of
``n`` indices per weight row. ``uniforms`` is the draw source: a callable
that maps a column count ``c`` to a ``(rows, c)`` matrix of uniforms in
[0, 1), row ``r`` serving weight row ``r`` (the particle filter passes
its counter-based draws), or a generator or seed, whose ``random((rows,
c))`` serves instead. Validation, normalization and the cumulative sums
run over all rows at once (row sums and cumulative sums of a
C-contiguous matrix equal each row's own), and ``np.searchsorted`` runs
once per row, so a row's picks depend only on its own weights and
uniforms.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from repro.rng import RngLike, make_rng

#: A draw source: ``columns -> (rows, columns)`` uniforms, or a generator or seed.
Uniforms = Union[Callable[[int], np.ndarray], RngLike]

_Kernel = Callable[[np.ndarray, int, Callable[[int], np.ndarray]], np.ndarray]


def _normalized_rows(weights: np.ndarray) -> np.ndarray:
    """Each row of a ``(rows, N)`` matrix divided by its sum.

    Raises the ``ValueError`` that the first invalid row would raise on
    its own: a negative weight first, then a sum that is not positive and
    finite.
    """
    totals = weights.sum(axis=1)
    # False on any negative or NaN weight, or any row sum out of range.
    if weights.min() >= 0.0 and all(0.0 < total < math.inf for total in totals.tolist()):
        return weights / totals[:, None]
    negative = (weights < 0).any(axis=1)
    invalid = negative | ~np.isfinite(totals) | (totals <= 0)
    if negative[np.argmax(invalid)]:
        raise ValueError("weights must be non-negative")
    raise ValueError("weights must have positive finite sum")


def _per_row(kernel: _Kernel, weights: np.ndarray, n: int, uniforms: Uniforms) -> np.ndarray:
    """Run a row kernel on 1-D weights (one row) or on a weight matrix."""
    weights = np.asarray(weights, dtype=float)
    one_row = weights.ndim == 1
    if one_row:
        weights = weights[None, :]
    if weights.ndim != 2 or weights.size == 0:
        raise ValueError("weights must be a non-empty 1-D array or (rows, N) matrix")
    rows = _normalized_rows(weights)
    if n is None:
        n = rows.shape[1]
    if callable(uniforms):
        source = uniforms
    else:
        generator = make_rng(uniforms)

        def source(columns: int) -> np.ndarray:
            return generator.random((len(rows), columns))

    def draws(columns: int) -> np.ndarray:
        values = source(columns)
        if values.shape != (len(rows), columns):
            raise ValueError("the uniform source must give one row per weight row")
        return values

    picks = kernel(rows, n, draws)
    return picks[0] if one_row else picks


def _cdf(rows: np.ndarray) -> np.ndarray:
    cdf = np.add.accumulate(rows, axis=1)  # np.cumsum, without its wrapper
    cdf[:, -1] = 1.0  # guard against float drift
    return cdf


def _search(cdf: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Row ``r``'s ``points`` located in row ``r`` of ``cdf``.

    One ``np.searchsorted`` per row: the drift guard can leave a CDF
    unsorted (it may pass 1.0 before its last entry), and only
    ``searchsorted`` itself defines the answer then.
    """
    picks = np.empty(points.shape, dtype=np.int64)
    for row in range(len(cdf)):
        picks[row] = cdf[row].searchsorted(points[row], side="left")
    return picks


@lru_cache(maxsize=8)
def _strides(n: int) -> np.ndarray:
    """``arange(n) / n``, the systematic offsets (read-only, shared)."""
    strides = np.arange(n) / n
    strides.flags.writeable = False
    return strides


def _systematic(rows: np.ndarray, n: int, uniforms: Callable[[int], np.ndarray]) -> np.ndarray:
    starts = uniforms(1) / n
    return _search(_cdf(rows), starts + _strides(n))


def _multinomial(rows: np.ndarray, n: int, uniforms: Callable[[int], np.ndarray]) -> np.ndarray:
    return _search(_cdf(rows), uniforms(n))


def _stratified(rows: np.ndarray, n: int, uniforms: Callable[[int], np.ndarray]) -> np.ndarray:
    return _search(_cdf(rows), (np.arange(n) + uniforms(n)) / n)


def _residual(rows: np.ndarray, n: int, uniforms: Callable[[int], np.ndarray]) -> np.ndarray:
    scaled = n * rows
    copies = np.floor(scaled).astype(np.int64)
    residual = scaled - copies
    draws = uniforms(n)
    picks = np.empty((len(rows), n), dtype=np.int64)
    columns = np.arange(rows.shape[1])
    for row in range(len(rows)):
        indices = np.repeat(columns, copies[row])
        remainder = n - len(indices)
        if remainder > 0:
            total = residual[row].sum()
            if total <= 0:
                extra = (draws[row, :remainder] * rows.shape[1]).astype(np.int64)
            else:
                cdf = np.cumsum(residual[row] / total)
                cdf[-1] = 1.0
                extra = np.searchsorted(cdf, draws[row, :remainder], side="left")
            indices = np.concatenate([indices, extra.astype(np.int64)])
        picks[row] = indices[:n]
    return picks


def systematic_resample(weights: np.ndarray, n: int = None, rng: Uniforms = None) -> np.ndarray:
    """Paper Algorithm 1: systematic resampling.

    Returns indices ``j`` such that index ``i`` appears approximately
    ``n * w_i`` times. Each row takes one start ``u1 = u / n`` from the
    first uniform of its row.
    """
    return _per_row(_systematic, weights, n, rng)


def multinomial_resample(weights: np.ndarray, n: int = None, rng: Uniforms = None) -> np.ndarray:
    """Multinomial resampling: n i.i.d. draws from the weight distribution."""
    return _per_row(_multinomial, weights, n, rng)


def stratified_resample(weights: np.ndarray, n: int = None, rng: Uniforms = None) -> np.ndarray:
    """Stratified resampling: one uniform draw inside each of n strata."""
    return _per_row(_stratified, weights, n, rng)


def residual_resample(weights: np.ndarray, n: int = None, rng: Uniforms = None) -> np.ndarray:
    """Residual resampling: deterministic copies plus multinomial residue."""
    return _per_row(_residual, weights, n, rng)


def effective_sample_size(weights: np.ndarray) -> float:
    """ESS = 1 / sum(w_i^2) for normalized weights.

    The standard degeneracy diagnostic: close to ``Ns`` when weights are
    uniform, close to 1 when one particle dominates.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    weights = _normalized_rows(weights[None, :])[0]
    return float(1.0 / np.sum(weights * weights))


RESAMPLERS = {
    "systematic": systematic_resample,
    "multinomial": multinomial_resample,
    "stratified": stratified_resample,
    "residual": residual_resample,
}
"""Registry used by the resampling ablation and the filter constructor."""
