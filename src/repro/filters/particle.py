"""The SIR particle filter as a pluggable backend.

This wraps :class:`repro.core.filter.ParticleFilter` without changing
its behavior: :meth:`ParticleBackend.run_many` hands a tick's requests
to the filter's lockstep kernel, and :meth:`ParticleBackend.run` is a
batch of one, so every result — and every RNG draw — is bit-identical
to running each object alone. A :class:`ParticleBayesFilter` is one
run's final cloud.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union, cast

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
    """One object's particle cloud, as a run left it."""

    def __init__(self, backend: "ParticleBackend", particles: ParticleSet) -> None:
        self._backend = backend
        self.particles = particles

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
        """Run every request through the filter's lockstep kernel."""
        obs.add("filter.backend_runs", len(requests), labels={"backend": self.name})
        results = self.filter.run_many(requests, current_second)
        return [
            FilterRun(
                filter=ParticleBayesFilter(self, result.particles),
                end_second=result.end_second,
            )
            for result in results
        ]
