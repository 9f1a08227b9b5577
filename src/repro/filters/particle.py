"""The SIR particle filter as a pluggable backend.

This wraps :class:`repro.core.filter.ParticleFilter` without changing
its behavior: :meth:`ParticleBackend.run_many` hands a tick's requests
to the filter's lockstep kernel, so every result — and every draw — is
bit-identical to running each object alone, and
:meth:`ParticleBackend.posteriors` snaps every final cloud in one
stacked pass.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union, cast

import repro.obs as obs
from repro.config import SimulationConfig
from repro.core.discretize import particles_to_anchor_distribution
from repro.core.filter import FilterRequest, ParticleFilter
from repro.core.particles import ParticleSet
from repro.core.resampling import systematic_resample
from repro.filters.base import FilterBackend, FilterRun
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader


class ParticleBackend(FilterBackend):
    """The paper's SIR particle filter behind the backend contract."""

    name = "particle"
    cacheable = True

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        super().__init__(graph, anchor_index, readers, config)
        self.filter = ParticleFilter(
            self.compiled_graph,
            self.readers,
            config,
            resampler=resampler if resampler is not None else systematic_resample,
        )

    def run_many(
        self,
        requests: Sequence[FilterRequest],
        current_second: int,
        seed: Optional[int] = None,
    ) -> List[FilterRun]:
        """Run every request through the filter's lockstep kernel."""
        obs.add("filter.backend_runs", len(requests), labels={"backend": self.name})
        return [
            FilterRun(result.particles, result.end_second)
            for result in self.filter.run_many(requests, current_second, seed)
        ]

    def posteriors(self, runs: Sequence[FilterRun]) -> List[Dict[int, float]]:
        """Every run's distribution from one stacked anchor snap."""
        return particles_to_anchor_distribution(
            [cast(ParticleSet, run.state) for run in runs], self.compiled_anchors
        )
