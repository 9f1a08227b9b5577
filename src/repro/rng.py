"""Deterministic random-number plumbing.

Two kinds of randomness run through the reproduction.

* **Generators.** The simulation (traces, readings, query placement)
  receives an explicit :class:`numpy.random.Generator`. :func:`make_rng`
  and :func:`child_rng` centralize how generators are created and how
  independent child streams are derived, so that any experiment row can
  be regenerated in isolation from its ``(seed, label)`` pair.
* **Counter-based draws.** Every draw of the particle filter is a pure
  function of its indices (Salmon et al., "Parallel Random Numbers: As
  Easy as 1, 2, 3", SC 2011): ``u = H(seed, object, second, purpose,
  hop, row)``. :class:`CounterDraws` evaluates ``H`` over ``uint64``
  arrays for a whole lockstep stack at once. The second is the one being
  stepped, not the tick that steps it, so a run resumed from a cached
  state draws exactly what tick-by-tick stepping draws, and an object's
  draws never depend on which other objects share the call.
"""

from __future__ import annotations

import hashlib
import zlib
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Sequence, Union

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


# ----------------------------------------------------------------------
# counter-based draws
# ----------------------------------------------------------------------
class Draw(IntEnum):
    """The purpose index of a filter draw; each names one use of a uniform."""

    INIT_PICK = 0  # a seed position among a circle's candidates
    INIT_JITTER = 1  # the offset jitter around it
    INIT_DIRECTION = 2
    SPEED_RADIUS = 3  # Box-Muller radius; hop 0 at seeding, 1 at a room exit
    SPEED_ANGLE = 4  # Box-Muller angle; hops as for the radius
    EXIT = 5  # whether a dweller leaves its room
    WALK = 6  # the entry taken at a junction; hop h is the walk's h-th node
    RESAMPLE = 7  # resampling: one systematic start, or a row of uniforms


_MASK64 = (1 << 64) - 1


def _word(value: int) -> np.ndarray:
    # A 0-d array: as an operand it costs less per call than a scalar.
    return np.array(value, dtype=np.uint64)


#: SplitMix64's increment (the golden ratio) and output multipliers.
_GAMMA = _word(0x9E3779B97F4A7C15)
_MIX_A = _word(0xBF58476D1CE4E5B9)
_MIX_B = _word(0x94D049BB133111EB)
_SHIFT_A, _SHIFT_B, _SHIFT_C = _word(30), _word(27), _word(31)
#: 64 - 53: the bits dropped to make a double in [0, 1).
_SHIFT_UNIT = _word(11)
_UNIT = 2.0 ** -53
#: Counter layout: purpose above hop above row.
_PURPOSE_SHIFT, _HOP_SHIFT = 40, 32


def _mix(words: np.ndarray) -> np.ndarray:
    """SplitMix64's output function over a ``uint64`` array (a new array).

    The products wrap modulo 2**64. Array arithmetic wraps silently;
    callers keep every operand an array, since wrapping *scalar* uint64
    arithmetic warns.
    """
    words = words ^ (words >> _SHIFT_A)
    words *= _MIX_A
    words ^= words >> _SHIFT_B
    words *= _MIX_B
    words ^= words >> _SHIFT_C
    return words


@lru_cache(maxsize=1 << 16)
def object_key(object_id: str) -> int:
    """A stable 64-bit key of an object id (BLAKE2b, not the salted ``hash``)."""
    digest = hashlib.blake2b(object_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def object_words(seed: int, object_ids: Sequence[str]) -> np.ndarray:
    """The ``(seed, object)`` part of every draw key, one word per id."""
    keys = np.array([object_key(object_id) for object_id in object_ids], dtype=np.uint64)
    seed_word = _mix(np.array([seed & _MASK64], dtype=np.uint64))
    return _mix(keys ^ seed_word)


class CounterDraws:
    """Counter-based uniforms for a stack of equal blocks of rows.

    Block ``b`` holds one object's cloud at one stepped second; its key
    is ``words[b]``, mixed from :func:`object_words` and that second by
    :meth:`at`. The uniform of row ``r`` of block ``b`` for ``purpose``
    at ``hop`` is SplitMix64's output number ``c + 1`` from the state
    ``words[b]``, with the counter ``c = purpose << 40 | hop << 32 |
    r``: a pure function of its indices, so a block draws the same values
    alone or in any stack. Uniforms are multiples of 2**-53 in [0, 1).
    """

    __slots__ = ("words", "size")

    def __init__(self, words: np.ndarray, size: int) -> None:
        self.words = words
        self.size = size

    @classmethod
    def at(cls, objects: np.ndarray, seconds: np.ndarray, size: int) -> "CounterDraws":
        """Draws of ``objects`` (:func:`object_words`) at ``seconds``, one per block."""
        return cls(_mix(objects + seconds.astype(np.uint64) * _GAMMA), size)

    def __len__(self) -> int:
        return len(self.words)

    def take(self, blocks: Sequence[int]) -> "CounterDraws":
        """The draws of a sub-stack made of ``blocks``."""
        return CounterDraws(self.words[np.asarray(blocks, dtype=np.int64)], self.size)

    def uniforms(
        self,
        purpose: Draw,
        rows: Optional[np.ndarray] = None,
        hop: int = 0,
        width: int = 1,
    ) -> np.ndarray:
        """Uniforms of the stack rows in ``rows`` (default: every row, in order).

        With ``width`` above 1, row ``j`` of the ``(width, len(rows))``
        result holds purpose ``purpose + j``: one pass for several
        consecutive purposes.
        """
        if rows is None:
            counters = _counters(self.size, purpose, hop, width)
            words = (self.words[:, None] + counters).reshape(width, -1)
        elif len(self.words) == 1:
            words = self.words + (rows.astype(np.uint64) + _lanes(purpose, hop, width)) * _GAMMA
        else:
            blocks = rows // self.size
            offsets = (rows - blocks * self.size).astype(np.uint64)
            words = self.words[blocks] + (offsets + _lanes(purpose, hop, width)) * _GAMMA
        values = _unit(_mix(words))
        return values[0] if width == 1 else values

    def block_uniforms(self, purpose: Draw, columns: int) -> np.ndarray:
        """A ``(blocks, columns)`` matrix: row ``b`` holds block ``b``'s rows ``< columns``."""
        return _unit(_mix(self.words[:, None] + _counters(columns, purpose, 0, 1)[0]))


def _unit(words: np.ndarray) -> np.ndarray:
    return np.multiply(words >> _SHIFT_UNIT, _UNIT)


@lru_cache(maxsize=64)
def _lanes(purpose: int, hop: int, width: int) -> np.ndarray:
    """``(purpose + j) << 40 | hop << 32`` plus 1, as a ``(width, 1)`` column."""
    lanes = np.array(
        [[((purpose + lane) << _PURPOSE_SHIFT | hop << _HOP_SHIFT) + 1] for lane in range(width)],
        dtype=np.uint64,
    )
    lanes.flags.writeable = False
    return lanes


@lru_cache(maxsize=256)
def _counters(size: int, purpose: int, hop: int, width: int) -> np.ndarray:
    """The ``(width, 1, size)`` counter terms of rows ``< size`` (read-only, shared)."""
    counters = ((np.arange(size, dtype=np.uint64) + _lanes(purpose, hop, width)) * _GAMMA)
    counters = counters[:, None, :]
    counters.flags.writeable = False
    return counters
