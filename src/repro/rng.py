"""Deterministic random-number plumbing.

Every stochastic component in the reproduction (traces, readings, particle
filters, query placement) receives an explicit :class:`numpy.random.Generator`.
This module centralizes how generators are created and how independent child
streams are derived, so that any experiment row can be regenerated in
isolation from its ``(seed, label)`` pair.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned as-is, so callers can thread one stream through).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_seed(seed: int, label: str) -> int:
    """Derive a stable 32-bit child seed from a parent seed and a label.

    The derivation is a CRC32 mix, chosen because it is deterministic across
    platforms and Python versions (unlike ``hash``).
    """
    mixed = zlib.crc32(f"{seed}:{label}".encode("utf-8"))
    return int(mixed) & 0x7FFFFFFF


def child_rng(seed: int, label: str) -> np.random.Generator:
    """A fresh generator seeded from ``child_seed(seed, label)``."""
    return np.random.default_rng(child_seed(seed, label))


def filter_run_label(second: int, object_id: str) -> str:
    """The canonical child-stream label of one object's filter run at one tick.

    Every per-object filter run in the system — in the tracking service,
    in any gateway partition, or resumed from a checkpoint — must derive
    its generator from this exact label, which is what makes results
    bit-identical across partition counts and restarts (the per-object
    determinism scheme). Filter backends get their stream through
    :func:`filter_run_rng` instead of formatting the label themselves, so
    the convention cannot drift between backends.
    """
    return f"pf:{second}:{object_id}"


def filter_run_rng(seed: int, second: int, object_id: str) -> np.random.Generator:
    """The private generator of one object's filter run at one tick."""
    return filter_run_rngs(seed, second, [object_id])[0]


def filter_run_rngs(
    seed: int, second: int, object_ids: Sequence[str]
) -> List[np.random.Generator]:
    """:func:`filter_run_rng` for every id of one tick, in one pass.

    Each generator equals ``child_rng(seed, filter_run_label(second,
    object_id))`` bit for bit: ``default_rng(s)`` is ``Generator(PCG64(
    SeedSequence(s)))``, and PCG64 reads only
    ``SeedSequence(s).generate_state(4, uint64)``. Those words are
    computed for every id at once by :func:`_seed_sequence_words`, so no
    :class:`~numpy.random.SeedSequence` is built per object.
    """
    seeds = [child_seed(seed, filter_run_label(second, object_id)) for object_id in object_ids]
    words = _seed_sequence_words(np.array(seeds, dtype=np.uint32))
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


class _SeedWords(ISeedSequence):
    """A seed sequence whose PCG64 seeding words are already known."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("precomputed seed words serve PCG64's (4, uint64) request only")
        return self.words


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _seed_sequence_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, uint64)`` for every ``s`` in ``seeds``.

    ``seeds`` are uint32 values, each a one-word entropy pool input (no
    spawn key). This is numpy's ``mix_entropy`` and ``generate_state``
    over uint32 arrays, one lane per seed: products wrap modulo 2**32
    exactly as in numpy's uint32 arithmetic. The hash constants evolve
    independently of the data, so they are plain Python ints here.
    """
    xshift = np.uint32(16)
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> xshift)

    # The first pool word hashes the seed; the rest hash zero entropy.
    pool = [hashmix(seeds)]
    zero = np.zeros_like(seeds)
    pool.extend(hashmix(zero) for _ in range(_POOL_SIZE - 1))
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed = (
                    np.uint32(_MIX_MULT_L) * pool[i_dst]
                    - np.uint32(_MIX_MULT_R) * hashmix(pool[i_src])
                )
                pool[i_dst] = mixed ^ (mixed >> xshift)

    state = np.empty((len(seeds), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> xshift)
    # Pairs of little-endian uint32 words, as numpy assembles them.
    return state.astype("<u4").view("<u8").astype(np.uint64)
