"""The SIR particle filter as a pluggable backend.

This wraps the proven :class:`repro.core.filter.ParticleFilter` without
changing its behavior: :meth:`ParticleBackend.run` delegates to the
legacy ``ParticleFilter.run`` loop, so every result — and every RNG draw
— is bit-identical to the pre-``repro.filters`` code. The
:class:`ParticleBayesFilter` contract implementation drives the same
public primitives (``predict`` / ``observe`` / ``observe_silence``) in
the same order, which the contract test suite asserts is equivalent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union, cast

import numpy as np

import repro.obs as obs
from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.core.discretize import particles_to_anchor_distribution
from repro.core.filter import ParticleFilter
from repro.core.particles import ParticleSet
from repro.core.resampling import systematic_resample
from repro.filters.base import (
    BayesFilter,
    FilterBackend,
    FilterRun,
    FilterState,
    FilterStateError,
    ResumeState,
)
from repro.filters.registry import register_backend
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader
from repro.rng import RngLike, make_rng


class ParticleBayesFilter(BayesFilter):
    """One object's particle cloud, driven through the contract."""

    def __init__(
        self,
        backend: "ParticleBackend",
        particles: ParticleSet,
        rng: np.random.Generator,
    ) -> None:
        self._backend = backend
        self.particles = particles
        self._rng = rng

    def predict(self, dt: float) -> None:
        self._backend.filter.predict(self.particles, self._rng, dt=dt)

    def update(
        self, second: int, readings: Sequence[str], negative_info: bool
    ) -> None:
        del second  # the particle filter conditions on the reading alone
        if readings:
            self._backend.filter.observe(self.particles, readings[0], self._rng)
        elif negative_info:
            self._backend.filter.observe_silence(self.particles, self._rng)

    def posterior(self) -> Dict[int, float]:
        return particles_to_anchor_distribution(
            [self.particles], self._backend.compiled_anchors
        )[0]

    def state(self) -> FilterState:
        return self.particles


@register_backend
class ParticleBackend(FilterBackend):
    """Registry wrapper around the paper's SIR particle filter."""

    name = "particle"
    state_version = 1
    cacheable = True

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        super().__init__(graph, anchor_index, readers, config, resampler=resampler)
        self.filter = ParticleFilter(
            self.compiled_graph,
            self.readers,
            config,
            resampler=resampler if resampler is not None else systematic_resample,
        )

    # ------------------------------------------------------------------
    def new_filter(
        self, history: ReadingHistory, rng: np.random.Generator
    ) -> BayesFilter:
        particles = self.filter.initialize(history, rng)
        return ParticleBayesFilter(self, particles, rng)

    def filter_from_state(
        self, state: FilterState, rng: np.random.Generator
    ) -> BayesFilter:
        return ParticleBayesFilter(self, cast(ParticleSet, state).copy(), rng)

    def state_from_dict(self, payload: Dict[str, object]) -> FilterState:
        try:
            return ParticleSet.from_state(payload)
        except KeyError as exc:
            raise FilterStateError(
                f"particle state document is missing field {exc.args[0]!r}"
            ) from exc

    def posteriors(self, runs: Sequence[FilterRun]) -> List[Dict[int, float]]:
        """Every run's distribution from one stacked anchor snap."""
        return particles_to_anchor_distribution(
            [cast(ParticleSet, run.state()) for run in runs], self.compiled_anchors
        )

    # ------------------------------------------------------------------
    def run(
        self,
        history: ReadingHistory,
        current_second: int,
        rng: RngLike = None,
        resume: Optional[ResumeState] = None,
    ) -> FilterRun:
        """Delegate to the legacy ``ParticleFilter.run`` loop.

        Kept as the production path (instead of the generic
        :meth:`~repro.filters.base.FilterBackend.replay`) so the particle
        backend is *literally* the pre-refactor code: bit-for-bit
        reproduction of all recorded experiment results is structural,
        not incidental. ``tests/test_filters_contract.py`` asserts the
        contract-driven replay produces the identical particle set.
        """
        generator = make_rng(rng)
        obs.add("filter.backend_runs", labels={"backend": self.name})
        result = self.filter.run(
            history,
            current_second,
            rng=generator,
            resume=cast("Optional[tuple]", resume),
        )
        return FilterRun(
            filter=ParticleBayesFilter(self, result.particles, generator),
            end_second=result.end_second,
        )
