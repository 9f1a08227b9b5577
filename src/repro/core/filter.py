"""The particle filter algorithm (paper Algorithm 2).

Given an object's retained reading history (up to the two most recent
detecting devices), the filter:

1. seeds particles uniformly within the activation range of the older
   device at the history's first second;
2. replays every second up to ``min(t_d + 60, t_current)``: particles move
   along the graph (motion model), and on observed seconds are reweighted
   (sensing model), normalized, and resampled (Algorithm 1);
3. returns the final particle set, which the preprocessing module snaps to
   anchor points.

Resuming from a cached state (paper Section 4.5) replays only the seconds
after the cached timestamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.core.compiled import CompiledGraph
from repro.core.motion import GraphMotionModel
from repro.core.particles import ParticleSet
from repro.core.resampling import systematic_resample
from repro.core.sensing import DeviceSensingModel
from repro.rfid.reader import RFIDReader
from repro.rng import RngLike, make_rng

Resampler = Callable[..., np.ndarray]


@dataclass
class FilterResult:
    """Output of one filter run: final particles and the second they represent."""

    particles: ParticleSet
    end_second: int


class ParticleFilter:
    """SIR particle filter over the indoor walking graph."""

    def __init__(
        self,
        compiled: CompiledGraph,
        readers: Mapping[str, RFIDReader],
        config: SimulationConfig,
        resampler: Resampler = systematic_resample,
    ):
        self.compiled = compiled
        self.readers = dict(readers)
        self.config = config
        self.resampler = resampler
        self.motion = GraphMotionModel(
            compiled,
            speed_mean=config.speed_mean,
            speed_std=config.speed_std,
            room_exit_probability=config.room_exit_probability,
            door_entry_probability=config.door_entry_probability,
        )
        self.sensing = DeviceSensingModel(
            compiled, readers,
            weight_hit=config.weight_hit,
            weight_miss=config.weight_miss,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        history: ReadingHistory,
        current_second: int,
        rng: RngLike = None,
        resume: Optional[Tuple[ParticleSet, int]] = None,
    ) -> FilterResult:
        """Run (or resume) the filter for one object.

        ``resume`` is ``(particles, state_second)`` from the cache module;
        when provided and not in the future, only seconds after
        ``state_second`` are replayed. The caller is responsible for cache
        validity (same device generation — Section 4.5).
        """
        if history.is_empty:
            raise ValueError(
                f"object {history.object_id!r} has no readings; it cannot be filtered"
            )
        generator = make_rng(rng)
        t0 = history.first_second
        td = history.last_second
        # Line 6 of Algorithm 2: never run more than 60 s past the last
        # reading — with no observations the cloud disperses into noise.
        t_end = int(min(td + self.config.silence_cap_seconds, current_second))

        with obs.span("filter.run", object=history.object_id, backend="particle"):
            if resume is not None and resume[1] <= t_end:
                particles = resume[0].copy()
                t_state = resume[1]
                obs.add("filter.resumed_runs")
            else:
                particles = self.initialize(history, generator)
                t_state = t0
            obs.add("filter.runs")
            obs.add("filter.seconds_replayed", max(t_end - t_state, 0))

            for second in range(t_state + 1, t_end + 1):
                self.predict(particles, generator, dt=1.0)
                reader_id = history.reading_at(second)
                if reader_id is None:
                    if self.config.use_negative_information:
                        self.observe_silence(particles, generator)
                    continue
                self.observe(particles, reader_id, generator)
        return FilterResult(particles=particles, end_second=t_end)

    def predict(
        self, particles: ParticleSet, rng: np.random.Generator, dt: float = 1.0
    ) -> None:
        """Advance every particle by ``dt`` seconds (the motion model step).

        Exposed as a public primitive (together with :meth:`observe` and
        :meth:`observe_silence`) so the :mod:`repro.filters` particle
        backend can drive the same predict/update sequence :meth:`run`
        executes, with the identical RNG draw order.
        """
        with obs.timer("filter.predict"):
            self.motion.step(particles, rng, dt=dt)

    def observe_silence(
        self, particles: ParticleSet, rng: np.random.Generator
    ) -> None:
        """Negative-information extension: no reading is also evidence.

        Particles standing inside some reader's range during a silent
        second are penalized (the object would almost surely have been
        read there). Resampling is deferred until the weights degenerate,
        so repeated silent seconds do not add resampling noise.
        """
        with obs.timer("filter.weight"):
            mask = self.sensing.reweight_negative(
                particles, self.config.negative_likelihood
            )
        obs.add("filter.silent_observations")
        with obs.timer("filter.normalize"):
            if mask.all():
                # Everything is in covered space (e.g. dense deployments
                # right after initialization): silence carries no
                # contrast, undo.
                particles.normalize_weights()
                return
            particles.normalize_weights()
        ess = 1.0 / float(np.sum(particles.weight ** 2))
        self._record_ess(ess, len(particles))
        if ess < len(particles) / 2.0:
            with obs.timer("filter.resample"):
                indices = self.resampler(particles.weight, len(particles), rng)
                resampled = particles.select(indices)
                self._replace(particles, resampled)

    # ------------------------------------------------------------------
    def initialize(self, history: ReadingHistory, rng: np.random.Generator) -> ParticleSet:
        """Algorithm 2 line 5: seed within the older device's range."""
        reader = self.readers[history.initial_reader_id]
        return self.motion.initialize_in_circle(
            self.config.num_particles, reader.detection_circle, rng
        )

    def observe(
        self, particles: ParticleSet, reader_id: str, rng: np.random.Generator
    ) -> None:
        """Reweight, normalize, and resample on one observation."""
        with obs.timer("filter.weight"):
            mask = self.sensing.reweight(particles, reader_id)
        obs.add("filter.observations")
        if not mask.any():
            # Particle depletion: no hypothesis is consistent with the
            # observation (e.g. the cloud dispersed during a long silent
            # stretch, or the object backtracked against all particles).
            # Recover by re-seeding within the observed reader's range —
            # the object is certainly there (paper Section 3.2, Case 1).
            obs.add("filter.depletion_reseeds")
            # A depleted cloud is the extreme of weight degeneracy: record
            # it as ESS 1.0 so the epoch-level `accuracy.ess_mean` proxy
            # actually collapses under reader outages instead of silently
            # omitting the worst-off objects from the mean.
            self._record_ess(1.0, len(particles))
            reseeded = self.motion.initialize_in_circle(
                len(particles), self.readers[reader_id].detection_circle, rng
            )
            self._replace(particles, reseeded)
            return
        with obs.timer("filter.normalize"):
            particles.normalize_weights()
        if obs.enabled():
            # Effective sample size before resampling: the paper's proxy
            # for weight degeneracy, exported per observation so the
            # epoch event log can trend accuracy drift.
            self._record_ess(
                1.0 / float(np.sum(particles.weight ** 2)), len(particles)
            )
        with obs.timer("filter.resample"):
            indices = self.resampler(particles.weight, len(particles), rng)
            self._replace(particles, particles.select(indices))

    @staticmethod
    def _record_ess(ess: float, num_particles: int) -> None:
        """Export one pre-resample ESS sample plus its collapse counter.

        ``filter.ess_collapses`` counts samples below a quarter of the
        particle budget — the per-run degeneracy events whose per-epoch
        *fraction* (``accuracy.ess_collapse_frac`` in the event log) is
        what the ``ess_collapse`` drift alert watches. The family mean
        alone dilutes localized collapses past recognition.
        """
        obs.observe("filter.ess", ess)
        if ess < num_particles / 4.0:
            obs.add("filter.ess_collapses")

    @staticmethod
    def _replace(particles: ParticleSet, source: ParticleSet) -> None:
        """Overwrite ``particles`` in place with ``source``'s state."""
        particles.edge[:] = source.edge
        particles.offset[:] = source.offset
        particles.direction[:] = source.direction
        particles.speed[:] = source.speed
        particles.dwelling[:] = source.dwelling
        particles.weight[:] = source.weight
