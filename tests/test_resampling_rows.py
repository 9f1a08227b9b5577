"""Row resamplers: one call on a weight matrix equals one 1-D call per row.

The references below are 1-D resamplers that read their uniforms from
one row of a uniform matrix. The registry functions take a ``(rows, N)``
weight matrix and a uniform source that serves one row of uniforms per
weight row (the particle filter's counter-based draws), or a generator
that draws the whole matrix at once. Every index must match a per-row
loop over the references, a generator source must end where one matrix
draw leaves it, and an invalid row must raise the ``ValueError`` its own
1-D call raises.
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


def ref_systematic(weights, n, u):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    points = u[0] / n + np.arange(n) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def ref_multinomial(weights, n, u):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u[:n], side="left").astype(np.int64)


def ref_stratified(weights, n, u):
    weights = _validated(weights)
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    points = (np.arange(n) + u[:n]) / n
    return np.searchsorted(cdf, points, side="left").astype(np.int64)


def ref_residual(weights, n, u):
    weights = _validated(weights)
    scaled = n * weights
    copies = np.floor(scaled).astype(np.int64)
    indices = np.repeat(np.arange(len(weights)), copies)
    remainder = n - len(indices)
    if remainder > 0:
        residual = scaled - copies
        total = residual.sum()
        if total <= 0:
            extra = (u[:remainder] * len(weights)).astype(np.int64)
        else:
            cdf = np.cumsum(residual / total)
            cdf[-1] = 1.0
            extra = np.searchsorted(cdf, u[:remainder], side="left")
        indices = np.concatenate([indices, extra.astype(np.int64)])
    return indices[:n]


#: The uniform columns each resampler asks its source for.
COLUMNS = {"systematic": lambda n: 1}
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


def _uniforms(seed, rows, n):
    """One row of uniforms per weight row, and a source serving them."""
    table = np.random.default_rng(seed).random((rows, n + 1))
    asked = []

    def source(columns):
        asked.append(columns)
        return table[:, :columns]

    return table, source, asked


def _columns(name, n):
    return COLUMNS.get(name, lambda n: n)(n)


@pytest.mark.parametrize("name", sorted(RESAMPLERS))
class TestRowsEqualOneCallPerRow:
    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows(), n_extra=st.sampled_from([0, 0, -1, 5]))
    @example(case=(np.array([CDF_PAST_ONE]), 3), n_extra=0)
    @example(case=(np.array([[0.0, 0.0, 2.0, 0.0]] * 3), 4), n_extra=0)
    def test_indices_and_generator_states(self, name, case, n_extra):
        weights, seed = case
        n = max(weights.shape[1] + n_extra, 1)
        table, source, asked = _uniforms(seed, len(weights), n)
        expected = [REFERENCES[name](row, n, u) for row, u in zip(weights, table)]
        picks = RESAMPLERS[name](weights, n, source)
        assert picks.dtype == np.int64
        assert picks.shape == (len(weights), n)
        assert asked == [_columns(name, n)]
        for row, want in enumerate(expected):
            assert np.array_equal(picks[row], want), row
        # A generator source draws the whole matrix in one call.
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = reference.random((len(weights), _columns(name, n)))
        from_rng = RESAMPLERS[name](weights, n, rng)
        for row, want in enumerate(drawn):
            assert np.array_equal(from_rng[row], REFERENCES[name](weights[row], n, want))
        assert rng.bit_generator.state == reference.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows(valid=False))
    def test_first_invalid_row_raises_its_own_error(self, name, case):
        weights, seed = case
        size = weights.shape[1]
        table, source, _ = _uniforms(seed, len(weights), size)
        message = None
        for row, u in zip(weights, table):
            try:
                REFERENCES[name](row, size, u)
            except ValueError as exc:
                message = str(exc)
                break
        assert message is not None
        with pytest.raises(ValueError) as raised:
            RESAMPLERS[name](weights, size, source)
        assert str(raised.value) == message

    @settings(max_examples=60, deadline=None)
    @given(case=weight_rows())
    def test_one_dimensional_call_is_the_one_row_case(self, name, case):
        weights, seed = case
        row = weights[0]
        columns = _columns(name, len(row))
        expected_rng = np.random.default_rng(seed)
        expected = REFERENCES[name](row, len(row), expected_rng.random((1, columns))[0])
        rng = np.random.default_rng(seed)
        picks = RESAMPLERS[name](row, len(row), rng)
        assert picks.shape == (len(row),)
        assert np.array_equal(picks, expected)
        assert rng.bit_generator.state == expected_rng.bit_generator.state

    def test_one_generator_per_row_is_required(self, name):
        # The source must serve one row of uniforms per weight row.
        with pytest.raises(ValueError, match="one row per weight row"):
            RESAMPLERS[name](np.ones((3, 4)), 4, lambda columns: np.zeros((2, columns)))
