"""Vectorized particle state.

Each particle is a hypothesis of an object's state (paper Section 3.2):
its location on the walking graph (edge + offset), moving direction along
the edge, walking speed, whether it is dwelling inside a room, and its
importance weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

#: Field names in constructor order.
_FIELDS = ("edge", "offset", "direction", "speed", "dwelling", "weight")


@dataclass
class ParticleSet:
    """A set of particles stored as parallel numpy arrays.

    ``direction`` is +1 when moving from ``node_a`` toward ``node_b`` of
    the particle's edge, -1 otherwise. ``dwelling`` particles sit at a
    room node and ignore direction until they exit.
    """

    edge: np.ndarray        # int64, edge ids
    offset: np.ndarray      # float64, meters from node_a
    direction: np.ndarray   # int8, +1 / -1
    speed: np.ndarray       # float64, m/s
    dwelling: np.ndarray    # bool
    weight: np.ndarray      # float64, importance weights

    def __post_init__(self) -> None:
        n = len(self.edge)
        if not (
            len(self.offset) == len(self.direction) == len(self.speed)
            == len(self.dwelling) == len(self.weight) == n
        ):
            for name in _FIELDS[1:]:
                if len(getattr(self, name)) != n:
                    raise ValueError(f"field {name!r} has mismatched length")

    def __len__(self) -> int:
        return len(self.edge)

    @classmethod
    def empty(cls, n: int) -> "ParticleSet":
        """Allocate an uninitialized set of ``n`` particles."""
        return cls(
            edge=np.zeros(n, dtype=np.int64),
            offset=np.zeros(n),
            direction=np.ones(n, dtype=np.int8),
            speed=np.ones(n),
            dwelling=np.zeros(n, dtype=bool),
            weight=np.full(n, 1.0 / max(n, 1)),
        )

    def copy(self) -> "ParticleSet":
        """Deep copy."""
        return ParticleSet(
            self.edge.copy(), self.offset.copy(), self.direction.copy(),
            self.speed.copy(), self.dwelling.copy(), self.weight.copy(),
        )

    def detached(self) -> "ParticleSet":
        """This set if it owns its arrays, else a copy that does.

        A row view of a larger stack keeps the whole stack alive; its
        detached copy holds only its own rows.
        """
        if all(getattr(self, name).base is None for name in _FIELDS):
            return self
        return self.copy()

    @classmethod
    def concatenate(cls, sets: Sequence["ParticleSet"]) -> "ParticleSet":
        """One set holding ``sets`` as consecutive blocks (always a copy)."""
        if len(sets) == 1:
            return sets[0].copy()
        return cls(*[np.concatenate([getattr(s, name) for s in sets]) for name in _FIELDS])

    def __getitem__(self, rows: Union[slice, np.ndarray]) -> "ParticleSet":
        """The particles at ``rows``: a view for a slice, a copy for an index array."""
        return ParticleSet(
            self.edge[rows], self.offset[rows], self.direction[rows],
            self.speed[rows], self.dwelling[rows], self.weight[rows],
        )

    def __setitem__(self, rows: Union[slice, np.ndarray], source: "ParticleSet") -> None:
        """Overwrite the particles at ``rows`` with ``source``, in place."""
        for name in _FIELDS:
            getattr(self, name)[rows] = getattr(source, name)

    def take(
        self,
        indices: np.ndarray,
        rows: Union[slice, np.ndarray] = slice(None),
        block_size: Optional[int] = None,
    ) -> None:
        """Replace the particles at ``rows`` by those ``indices`` picks, in place.

        This is the "assign sample / assign weight" step of the paper's
        resampling Algorithm 1 (lines 13-14). ``indices`` holds one row
        index per replaced particle, and the replaced weights become
        ``1 / block_size`` (default: one block of ``len(indices)``). In
        a stack of equal blocks each block resamples within itself, so
        its picks stay inside it.
        """
        if isinstance(rows, slice) and rows == slice(None) and len(indices) != len(self):
            raise ValueError("take needs one index per particle")
        self.edge[rows] = self.edge[indices]
        self.offset[rows] = self.offset[indices]
        self.direction[rows] = self.direction[indices]
        self.speed[rows] = self.speed[indices]
        self.dwelling[rows] = self.dwelling[indices]
        self.weight[rows] = 1.0 / max(block_size or len(indices), 1)

    def normalize_weights(self, blocks: int = 1) -> None:
        """Scale each block's weights to sum to 1 (Algorithm 2 line 28).

        The set is a stack of ``blocks`` equal blocks, each normalized on
        its own; a block whose total mass collapses to zero (numerically)
        falls back to uniform weights. Row sums of the C-contiguous
        ``(blocks, N)`` weight view equal each block's own ``sum()`` bit
        for bit, so one stacked call matches one call per block.
        """
        if blocks == 1:  # a lone cloud: the same bits with fewer numpy calls
            total = self.weight.sum()
            if 0.0 < total < math.inf:
                self.weight /= total
            else:
                self.weight[:] = 1.0 / max(len(self), 1)
            return
        weight = self.weight.reshape(blocks, -1)
        totals = weight.sum(axis=1)
        values = totals.tolist()
        if all(0.0 < total < math.inf for total in values):  # False on NaN
            weight /= totals[:, None]
            return
        for block, total in enumerate(values):
            if 0.0 < total < math.inf:
                weight[block] /= total
            else:
                weight[block] = 1.0 / max(weight.shape[1], 1)
