"""The device sensing (measurement) model (paper Algorithm 2, lines 21-27).

On an observation by reader ``d``, particles within ``d``'s activation
range receive a high weight and all others a low weight; weights are then
normalized and the set is resampled.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.core.compiled import CompiledGraph
from repro.core.particles import ParticleSet
from repro.rfid.reader import RFIDReader


class DeviceSensingModel:
    """Binary in-range / out-of-range particle reweighting."""

    def __init__(
        self,
        compiled: CompiledGraph,
        readers: Mapping[str, RFIDReader],
        weight_hit: float = 0.9,
        weight_miss: float = 0.01,
    ):
        if weight_hit <= weight_miss:
            raise ValueError("weight_hit must exceed weight_miss")
        if weight_miss < 0:
            raise ValueError("weight_miss must be non-negative")
        self.compiled = compiled
        self.readers = dict(readers)
        self.weight_hit = weight_hit
        self.weight_miss = weight_miss
        #: ``(x, y, squared range + 1e-12)`` per reader, the in-range test.
        self._discs: Dict[str, Tuple[float, float, float]] = {
            reader_id: (
                reader.position.x,
                reader.position.y,
                reader.activation_range ** 2 + 1e-12,
            )
            for reader_id, reader in self.readers.items()
        }

    def in_range_mask(
        self, particles: ParticleSet, reader_ids: Sequence[str]
    ) -> np.ndarray:
        """Boolean mask of particles inside their block's reader's range.

        ``particles`` is a stack of ``len(reader_ids)`` equal blocks of
        rows; block ``b`` is tested against ``reader_ids[b]``. A single
        cloud passes ``[reader_id]``.
        """
        if isinstance(reader_ids, str):
            raise TypeError("reader_ids holds one reader id per block, not one string")
        x, y = self.compiled.points(particles.edge, particles.offset)
        if len(reader_ids) == 1:
            cx, cy, reach = self._discs[reader_ids[0]]
            dx, dy = x - cx, y - cy
            return dx * dx + dy * dy <= reach
        discs = np.array([self._discs[reader_id] for reader_id in reader_ids])
        dx = x.reshape(len(reader_ids), -1) - discs[:, 0:1]
        dy = y.reshape(len(reader_ids), -1) - discs[:, 1:2]
        return (dx * dx + dy * dy <= discs[:, 2:3]).reshape(-1)

    def in_any_range_mask(self, particles: ParticleSet) -> np.ndarray:
        """Boolean mask of particles inside *any* reader's range.

        Used by the negative-information extension: on a silent second,
        a particle standing in some reader's range is inconsistent with
        the absence of readings.
        """
        x, y = self.compiled.points(particles.edge, particles.offset)
        mask = np.zeros(len(particles), dtype=bool)
        for reader in self.readers.values():
            dx = x - reader.position.x
            dy = y - reader.position.y
            mask |= dx * dx + dy * dy <= reader.activation_range ** 2 + 1e-12
        return mask

    def reweight_negative(
        self, particles: ParticleSet, negative_likelihood: float
    ) -> np.ndarray:
        """Penalize particles that should have been detected but were not."""
        mask = self.in_any_range_mask(particles)
        particles.weight *= np.where(mask, negative_likelihood, 1.0)
        return mask

    def reweight(
        self, particles: ParticleSet, reader_ids: Sequence[str]
    ) -> np.ndarray:
        """Apply the observation likelihood, block ``b`` read by ``reader_ids[b]``.

        Returns the in-range mask so the filter can detect total particle
        depletion (no particle consistent with the observation).
        """
        mask = self.in_range_mask(particles, reader_ids)
        particles.weight *= np.where(mask, self.weight_hit, self.weight_miss)
        return mask
