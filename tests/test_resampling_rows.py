"""Row resamplers: one call on a weight matrix equals one 1-D call per row.

The references below are the 1-D resamplers as they were before the
registry functions took ``(rows, N)`` weight matrices with one generator
per row. Every index and every generator's final state must match a
per-row loop over them, and an invalid row must raise the ``ValueError``
its own 1-D call raises.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.resampling import RESAMPLERS


def _validated(weights):
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or len(weights) == 0:
        raise ValueError("weights must be a non-empty 1-D array")
    if (weights < 0).any():
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        raise ValueError("weights must have positive finite sum")
    return weights / total


def ref_systematic(weights, n, rng):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    u1 = rng.uniform(0.0, 1.0 / n)
    points = u1 + np.arange(n) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def ref_multinomial(weights, n, rng):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    draws = rng.random(n)
    return np.searchsorted(cdf, draws, side="left").astype(np.int64)


def ref_stratified(weights, n, rng):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    points = (np.arange(n) + rng.random(n)) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def ref_residual(weights, n, rng):
    weights = _validated(weights)
    scaled = n * weights
    copies = np.floor(scaled).astype(np.int64)
    indices = np.repeat(np.arange(len(weights)), copies)
    remainder = n - len(indices)
    if remainder > 0:
        residual = scaled - copies
        total = residual.sum()
        if total <= 0:
            extra = rng.integers(0, len(weights), size=remainder)
        else:
            cdf = np.cumsum(residual / total)
            cdf[-1] = 1.0
            extra = np.searchsorted(cdf, rng.random(remainder), side="left")
        indices = np.concatenate([indices, extra.astype(np.int64)])
    return indices[:n]


REFERENCES = {
    "systematic": ref_systematic,
    "multinomial": ref_multinomial,
    "stratified": ref_stratified,
    "residual": ref_residual,
}

#: Normalized, these weights have a CDF that passes 1.0 before its last
#: entry (0.7 + 0.15 + ... rounds up to 1.0000000000000002).
CDF_PAST_ONE = [3.0, 2.5, 1.5, 1.5, 0.5, 0.5, 0.5, 0.0, 0.0]


@st.composite
def weight_rows(draw, valid=True):
    """A ``(rows, N)`` weight matrix mixing dense, sparse and one-hot rows."""
    size = draw(st.integers(1, 64))
    rows = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 4, rows)
    weights = rng.uniform(0.0, 10.0, (rows, size))
    weights[kinds == 1] *= rng.random((int((kinds == 1).sum()), size)) < 0.3
    one_hot = np.flatnonzero(kinds == 2)
    weights[one_hot] = 0.0
    weights[one_hot, rng.integers(0, size, len(one_hot))] = rng.uniform(0.1, 5.0, len(one_hot))
    if size >= len(CDF_PAST_ONE):
        weights[kinds == 3] = 0.0
        weights[kinds == 3, : len(CDF_PAST_ONE)] = CDF_PAST_ONE
    # A row that sums to nothing is made one-hot, so every row is valid.
    empty = np.flatnonzero(weights.sum(axis=1) <= 0)
    weights[empty, 0] = 1.0
    if not valid:
        bad = draw(st.integers(0, rows - 1))
        flaw = draw(st.sampled_from(["negative", "zero", "inf", "nan"]))
        if flaw == "negative":
            weights[bad, draw(st.integers(0, size - 1))] = -0.5
        elif flaw == "zero":
            weights[bad] = 0.0
        else:
            weights[bad, draw(st.integers(0, size - 1))] = np.inf if flaw == "inf" else np.nan
        if draw(st.booleans()) and bad + 1 < rows:
            weights[bad + 1:] = -1.0  # a later row whose own error differs
    return weights, seed


def _generators(seed, rows):
    return [np.random.default_rng([seed, row]) for row in range(rows)]


def _states(generators):
    return [generator.bit_generator.state for generator in generators]


@pytest.mark.parametrize("name", sorted(RESAMPLERS))
class TestRowsEqualOneCallPerRow:
    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows(), n_extra=st.sampled_from([0, 0, -1, 5]))
    @example(case=(np.array([CDF_PAST_ONE]), 3), n_extra=0)
    @example(case=(np.array([[0.0, 0.0, 2.0, 0.0]] * 3), 4), n_extra=0)
    def test_indices_and_generator_states(self, name, case, n_extra):
        weights, seed = case
        n = max(weights.shape[1] + n_extra, 1)
        expected_rngs = _generators(seed, len(weights))
        expected = [
            REFERENCES[name](row, n, rng) for row, rng in zip(weights, expected_rngs)
        ]
        rngs = _generators(seed, len(weights))
        picks = RESAMPLERS[name](weights, n, rngs)
        assert picks.dtype == np.int64
        assert picks.shape == (len(weights), n)
        for row, want in enumerate(expected):
            assert np.array_equal(picks[row], want), row
        assert _states(rngs) == _states(expected_rngs)

    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows(valid=False))
    def test_first_invalid_row_raises_its_own_error(self, name, case):
        weights, seed = case
        size = weights.shape[1]
        message = None
        for row, rng in zip(weights, _generators(seed, len(weights))):
            try:
                REFERENCES[name](row, size, rng)
            except ValueError as exc:
                message = str(exc)
                break
        assert message is not None
        with pytest.raises(ValueError) as raised:
            RESAMPLERS[name](weights, size, _generators(seed, len(weights)))
        assert str(raised.value) == message

    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows())
    def test_one_dimensional_call_is_the_one_row_case(self, name, case):
        weights, seed = case
        row = weights[0]
        expected_rng = np.random.default_rng(seed)
        expected = REFERENCES[name](row, len(row), expected_rng)
        rng = np.random.default_rng(seed)
        picks = RESAMPLERS[name](row, len(row), rng)
        assert picks.shape == (len(row),)
        assert np.array_equal(picks, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_one_generator_per_row_is_required(self, name):
        with pytest.raises(ValueError, match="one generator per row"):
            RESAMPLERS[name](np.ones((3, 4)), 4, _generators(0, 2))
