"""Deterministic random-number plumbing.

Every stochastic component in the reproduction (traces, readings, particle
filters, query placement) receives an explicit :class:`numpy.random.Generator`.
This module centralizes how generators are created and how independent child
streams are derived, so that any experiment row can be regenerated in
isolation from its ``(seed, label)`` pair.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

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
    return child_rng(seed, filter_run_label(second, object_id))
