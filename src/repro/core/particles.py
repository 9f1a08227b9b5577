"""Vectorized particle state.

Each particle is a hypothesis of an object's state (paper Section 3.2):
its location on the walking graph (edge + offset), moving direction along
the edge, walking speed, whether it is dwelling inside a room, and its
importance weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
        for name in ("offset", "direction", "speed", "dwelling", "weight"):
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
        """Deep copy (used by the cache module)."""
        return ParticleSet(
            edge=self.edge.copy(),
            offset=self.offset.copy(),
            direction=self.direction.copy(),
            speed=self.speed.copy(),
            dwelling=self.dwelling.copy(),
            weight=self.weight.copy(),
        )

    def take(self, indices: np.ndarray) -> None:
        """Replace the rows by rows ``indices``, in place, with uniform weights.

        This is the "assign sample / assign weight" step of the paper's
        resampling Algorithm 1 (lines 13-14). ``indices`` holds one row
        index per particle.
        """
        if len(indices) != len(self):
            raise ValueError("take needs one index per particle")
        self.edge[:] = self.edge[indices]
        self.offset[:] = self.offset[indices]
        self.direction[:] = self.direction[indices]
        self.speed[:] = self.speed[indices]
        self.dwelling[:] = self.dwelling[indices]
        self.weight[:] = 1.0 / max(len(indices), 1)

    def to_state(self) -> dict:
        """Serialize to a JSON-safe dict of plain lists.

        Used by the service checkpoint module; :meth:`from_state` inverts
        it exactly (dtypes included), so a checkpoint/restore round trip
        preserves particle state bit-for-bit.
        """
        return {
            "edge": self.edge.tolist(),
            "offset": self.offset.tolist(),
            "direction": self.direction.tolist(),
            "speed": self.speed.tolist(),
            "dwelling": self.dwelling.tolist(),
            "weight": self.weight.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ParticleSet":
        """Rebuild a set from :meth:`to_state` output."""
        return cls(
            edge=np.asarray(state["edge"], dtype=np.int64),
            offset=np.asarray(state["offset"], dtype=np.float64),
            direction=np.asarray(state["direction"], dtype=np.int8),
            speed=np.asarray(state["speed"], dtype=np.float64),
            dwelling=np.asarray(state["dwelling"], dtype=bool),
            weight=np.asarray(state["weight"], dtype=np.float64),
        )

    def normalize_weights(self) -> None:
        """Scale weights to sum to 1 (Algorithm 2 line 28).

        When the total mass collapses to zero (numerically), falls back to
        uniform weights.
        """
        total = self.weight.sum()
        if total <= 0.0 or not np.isfinite(total):
            self.weight[:] = 1.0 / max(len(self), 1)
        else:
            self.weight /= total
