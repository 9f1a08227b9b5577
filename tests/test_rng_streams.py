"""The counter-based filter stream: ``u = H(seed, object, second, purpose, hop, row)``.

``repro.rng.CounterDraws`` evaluates SplitMix64 over ``uint64`` arrays.
Every draw is a pure function of its indices, so a block's draws never
depend on which other blocks share the call. These tests pin the range
and resolution of the uniforms, their uniformity, the absence of
correlation between neighbouring indices, distinct object keys, and
overflow-free arithmetic (the suite turns warnings into errors, and
wrapping ``uint64`` *scalar* arithmetic warns).
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_project
from repro.rng import CounterDraws, Draw, object_key, object_words

SIZE = 64


def draws(seed: int, ids, second: int = 42, size: int = SIZE) -> CounterDraws:
    return CounterDraws.at(object_words(seed, ids), np.full(len(ids), second), size)


class TestSeedWords:
    """The ``(seed, object)`` words every draw key starts from."""

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1])
    def test_edge_seeds(self, seed):
        ids = [f"obj-{index}" for index in range(50)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            words = object_words(seed, ids)
            values = draws(seed, ids).uniforms(Draw.WALK)
        assert words.dtype == np.uint64
        assert len(set(words.tolist())) == len(ids)
        assert values.min() >= 0.0 and values.max() < 1.0

    def test_ten_thousand_random_seeds(self):
        seeds = np.random.default_rng(2024).integers(0, 2**63, 10_000).tolist()
        words = [int(object_words(seed, ["obj"])[0]) for seed in seeds]
        assert len(set(words)) == len(seeds)

    def test_empty_batch(self):
        words = object_words(3, [])
        assert words.shape == (0,) and words.dtype == np.uint64
        assert draws(3, []).uniforms(Draw.WALK).shape == (0,)


class TestStreams:
    @pytest.mark.parametrize("count", [1, 200])
    def test_batch_equals_one_stream_per_object(self, count):
        ids = [f"obj-{index}" for index in range(count)]
        batch = draws(7, ids)
        rows = np.arange(count * SIZE)[::7]
        together = batch.uniforms(Draw.RESAMPLE, rows, hop=2)
        for block, object_id in enumerate(ids):
            alone = draws(7, [object_id])
            mine = rows[rows // SIZE == block]
            assert np.array_equal(
                together[rows // SIZE == block],
                alone.uniforms(Draw.RESAMPLE, mine - block * SIZE, hop=2),
            )
            assert np.array_equal(
                batch.uniforms(Draw.WALK).reshape(count, SIZE)[block],
                alone.uniforms(Draw.WALK),
            )
        assert np.array_equal(
            batch.block_uniforms(Draw.RESAMPLE, 5),
            np.stack([draws(7, [i]).block_uniforms(Draw.RESAMPLE, 5)[0] for i in ids]),
        )

    def test_streams_are_independent_of_batch_company(self):
        alone = draws(3, ["b"]).uniforms(Draw.SPEED_RADIUS, width=2)
        among = draws(3, ["a", "b", "c"]).take([1]).uniforms(Draw.SPEED_RADIUS, width=2)
        assert np.array_equal(alone, among)

    def test_no_ids_no_generators(self):
        empty = draws(3, [])
        assert len(empty) == 0
        assert empty.uniforms(Draw.EXIT, np.array([], dtype=np.int64)).shape == (0,)
        assert empty.block_uniforms(Draw.RESAMPLE, 4).shape == (0, 4)

    def test_width_lanes_are_consecutive_purposes(self):
        stack = draws(5, ["a", "b"])
        rows = np.array([3, 70, 100])
        lanes = stack.uniforms(Draw.INIT_PICK, rows, width=5)
        for lane in range(5):
            assert np.array_equal(lanes[lane], stack.uniforms(Draw(lane), rows))
        assert np.array_equal(stack.uniforms(Draw.INIT_PICK, width=5)[:, rows], lanes)


class TestUniforms:
    """Range, resolution, uniformity and independence of the stream."""

    def test_range_and_53_bit_resolution(self):
        values = draws(1, [f"o{i}" for i in range(100)]).uniforms(Draw.WALK)
        assert values.dtype == np.float64
        assert values.min() >= 0.0 and values.max() < 1.0
        scaled = values * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))
        # Low bits are in use: not a coarser grid.
        assert (scaled.astype(np.uint64) & np.uint64(1)).any()

    def test_chi_square_uniformity(self):
        ids = [f"obj-{index}" for index in range(300)]
        values = draws(11, ids, size=1000).uniforms(Draw.WALK)
        assert len(values) == 300_000
        counts = np.bincount((values * 100).astype(np.int64), minlength=100)
        expected = len(values) / 100
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        # 99 degrees of freedom: the 0.1% critical value is 148.2.
        assert chi_square < 148.2

    def test_no_correlation_between_neighbours(self):
        ids = [f"obj-{index}" for index in range(2000)]
        size = 50
        base = draws(13, ids, second=10, size=size)
        grid = base.uniforms(Draw.WALK).reshape(len(ids), size)
        neighbours = {
            "objects": (grid[:-1], grid[1:]),
            "rows": (grid[:, :-1], grid[:, 1:]),
            "seconds": (grid, draws(13, ids, second=11, size=size)
                        .uniforms(Draw.WALK).reshape(len(ids), size)),
            "purposes": (grid, base.uniforms(Draw.RESAMPLE).reshape(len(ids), size)),
            "hops": (grid, base.uniforms(Draw.WALK, hop=1).reshape(len(ids), size)),
        }
        for name, (left, right) in neighbours.items():
            r = np.corrcoef(left.reshape(-1), right.reshape(-1))[0, 1]
            # About 1e5 pairs: the standard error is about 0.003.
            assert abs(r) < 0.02, (name, r)

    def test_distinct_object_ids_get_distinct_keys(self):
        ids = [f"tag-{index:06d}" for index in range(100_000)] + ["", "a", "b", "ab", "ba"]
        keys = [object_key(object_id) for object_id in ids]
        assert len(set(keys)) == len(ids)
        assert all(0 <= key < 2**64 for key in keys)
        # Stable across processes and Python versions: not the salted hash.
        assert object_key("obj-0") == int.from_bytes(
            __import__("hashlib").blake2b(b"obj-0", digest_size=8).digest(), "little"
        )

    def test_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stack = draws(2**64 - 1, ["x", "y"], second=2**40, size=3)
            stack.uniforms(Draw.WALK, hop=63)
            stack.uniforms(Draw.WALK, np.array([0, 5]), hop=63)
            stack.take([1]).uniforms(Draw.EXIT, np.array([2]))
            stack.block_uniforms(Draw.RESAMPLE, 3)


# ----------------------------------------------------------------------
# the SEED rule sanctions the counter-based source
# ----------------------------------------------------------------------
def _tree(root: Path, source: str) -> str:
    target = root / "src" / "repro" / "service" / "streams.py"
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    return str(root)


def test_seed_rule_accepts_counter_draws(tmp_path):
    tree = _tree(
        tmp_path,
        "import numpy as np\n"
        "\n"
        "from repro.rng import CounterDraws, object_words\n"
        "\n"
        "\n"
        "def streams(seed: int, second: int, ids: list) -> CounterDraws:\n"
        "    draws = CounterDraws.at(object_words(seed, ids), np.full(len(ids), second), 64)\n"
        "    return draws\n",
    )
    result = lint_project([tree], only=["SEED"])
    assert result.findings == []


def test_seed_rule_flags_a_bare_pcg64_generator(tmp_path):
    tree = _tree(
        tmp_path,
        "import numpy as np\n"
        "\n"
        "\n"
        "def stream(words: object) -> object:\n"
        "    return np.random.Generator(np.random.PCG64(words))\n",
    )
    findings = lint_project([tree], only=["SEED"]).findings
    assert len(findings) == 1
    assert findings[0].rule == "SEED"
    assert "`numpy.random.Generator()`" in findings[0].message
