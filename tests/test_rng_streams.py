"""One stream pass per tick: ``filter_run_rngs`` is ``filter_run_rng`` per id.

``filter_run_rngs`` seeds every object's PCG64 from seed words computed for
the whole tick in one uint32 array pass. The words must equal numpy's own
``SeedSequence(s).generate_state(4, uint64)``, and every generator must be
the one ``np.random.default_rng(child_seed(seed, label))`` builds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lint_project
from repro.rng import (
    _seed_sequence_words,
    child_seed,
    filter_run_label,
    filter_run_rng,
    filter_run_rngs,
)


def _numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


class TestSeedWords:
    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1])
    def test_edge_seeds(self, seed):
        words = _seed_sequence_words(np.array([seed], dtype=np.uint32))
        assert words.dtype == np.uint64
        assert np.array_equal(words[0], _numpy_words(seed))

    def test_ten_thousand_random_seeds(self):
        seeds = np.random.default_rng(2024).integers(0, 2**31, 10_000)
        words = _seed_sequence_words(seeds.astype(np.uint32))
        expected = np.array([_numpy_words(int(seed)) for seed in seeds])
        assert np.array_equal(words, expected)

    def test_empty_batch(self):
        words = _seed_sequence_words(np.array([], dtype=np.uint32))
        assert words.shape == (0, 4)


def _reference(seed: int, second: int, object_id: str) -> np.random.Generator:
    return np.random.default_rng(child_seed(seed, filter_run_label(second, object_id)))


class TestStreams:
    @pytest.mark.parametrize("count", [1, 200])
    def test_batch_equals_one_stream_per_object(self, count):
        ids = [f"obj-{index}" for index in range(count)]
        batch = filter_run_rngs(7, 42, ids)
        singles = [filter_run_rng(7, 42, object_id) for object_id in ids]
        references = [_reference(7, 42, object_id) for object_id in ids]
        assert len(batch) == count
        for got, single, want in zip(batch, singles, references):
            assert got.bit_generator.state == want.bit_generator.state
            assert single.bit_generator.state == want.bit_generator.state
            draws = want.random(5), want.normal(size=3), want.integers(0, 9, 4)
            assert np.array_equal(got.random(5), draws[0])
            assert np.array_equal(got.normal(size=3), draws[1])
            assert np.array_equal(got.integers(0, 9, 4), draws[2])
            assert got.bit_generator.state == want.bit_generator.state

    def test_streams_are_independent_of_batch_company(self):
        alone = filter_run_rngs(3, 9, ["b"])[0]
        among = filter_run_rngs(3, 9, ["a", "b", "c"])[1]
        assert alone.bit_generator.state == among.bit_generator.state

    def test_no_ids_no_generators(self):
        assert filter_run_rngs(3, 9, []) == []


# ----------------------------------------------------------------------
# the SEED rule sanctions the batch factory only
# ----------------------------------------------------------------------
def _tree(root: Path, source: str) -> str:
    target = root / "src" / "repro" / "service" / "streams.py"
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    return str(root)


def test_seed_rule_accepts_filter_run_rngs(tmp_path):
    tree = _tree(
        tmp_path,
        "from repro.rng import filter_run_rngs\n"
        "\n"
        "\n"
        "def streams(seed: int, second: int, ids: list) -> list:\n"
        "    generators = filter_run_rngs(seed, second, ids)\n"
        "    return generators\n",
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
