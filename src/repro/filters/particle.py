"""The SIR particle filter as a pluggable backend.

This wraps :class:`repro.core.filter.ParticleFilter` without changing
its behavior: :meth:`ParticleBackend.run_many` hands a tick's requests
to the filter's lockstep kernel, and :meth:`ParticleBackend.run` is a
batch of one, so every result — and every RNG draw — is bit-identical
to running each object alone. The :class:`ParticleBayesFilter` contract
implementation drives the same public primitives (``predict`` /
``observe`` / ``observe_silence``) in the same order on one cloud, which
the contract test suite asserts is equivalent.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union, cast

import numpy as np

import repro.obs as obs
from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.core.discretize import particles_to_anchor_distribution
from repro.core.filter import FilterRequest, ParticleFilter
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
        self._backend.filter.predict(self.particles, [self._rng], dt=dt)

    def update(
        self, second: int, readings: Sequence[str], negative_info: bool
    ) -> None:
        del second  # the particle filter conditions on the reading alone
        if readings:
            self._backend.filter.observe(self.particles, readings[:1], [self._rng])
        elif negative_info:
            self._backend.filter.observe_silence(self.particles, [self._rng])

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
        """Run (or resume) one object: :meth:`run_many` with one request."""
        request = FilterRequest(history, make_rng(rng), resume)
        return self.run_many([request], current_second)[0]

    def run_many(
        self, requests: Sequence[FilterRequest], current_second: int
    ) -> List[FilterRun]:
        """Run every request through the filter's lockstep kernel.

        ``tests/test_filters_contract.py`` asserts the contract-driven
        :meth:`~repro.filters.base.FilterBackend.replay` produces the
        identical particle sets.
        """
        obs.add("filter.backend_runs", len(requests), labels={"backend": self.name})
        results = self.filter.run_many(requests, current_second)
        return [
            FilterRun(
                filter=ParticleBayesFilter(self, result.particles, request.rng),
                end_second=result.end_second,
            )
            for request, result in zip(requests, results)
        ]
