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
after the cached timestamp. :meth:`ParticleFilter.run_many` advances many
objects' clouds in lockstep, each bit-identical to a run of its own.

Every draw is a counter-based uniform keyed by ``(seed, object, stepped
second)`` (:class:`repro.rng.CounterDraws`): the cloud's initialization
by its first second, every later draw by the second it replays. So a run
resumed from any state a run of its own passed through continues exactly
as that run did.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

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
from repro.rng import CounterDraws, Draw, object_words

Resampler = Callable[..., np.ndarray]


@dataclass
class FilterResult:
    """Output of one filter run: final particles and the second they represent."""

    particles: ParticleSet
    end_second: int


@dataclass
class FilterRequest:
    """One object's share of a :meth:`ParticleFilter.run_many` call.

    ``resume`` is ``(state, state_second)`` from the cache module, or
    ``None``; the state is read, never mutated.
    """

    history: ReadingHistory
    resume: Optional[Tuple[Any, int]] = None


class _Plan(NamedTuple):
    """Where one request starts and how many seconds it replays."""

    state: Optional[ParticleSet]  # None: seed from the history
    t_state: int
    t_end: int
    steps: int


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
        seed: Optional[int] = None,
        resume: Optional[Tuple[ParticleSet, int]] = None,
    ) -> FilterResult:
        """Run (or resume) the filter for one object: a batch of one."""
        return self.run_many([FilterRequest(history, resume)], current_second, seed)[0]

    def run_many(
        self,
        requests: Sequence[FilterRequest],
        current_second: int,
        seed: Optional[int] = None,
    ) -> List[FilterResult]:
        """Run (or resume) the filter for every request, in request order.

        A resume state not in the future replays only the seconds after
        its timestamp; the caller is responsible for cache validity (same
        device generation — Section 4.5). Each request replays up to
        ``min(t_d + silence_cap, current_second)``. Draws are keyed by
        ``seed`` (default: the config's), each object's id and the
        stepped second.

        Requests are advanced in lockstep, one batch per particle count
        (:meth:`_lockstep`).
        """
        seed = self.config.seed if seed is None else seed
        plans = [self._plan(request, current_second) for request in requests]
        groups: Dict[int, List[int]] = {}
        for index, plan in enumerate(plans):
            size = self.config.num_particles if plan.state is None else len(plan.state)
            groups.setdefault(size, []).append(index)
        if len(groups) == 1:
            return self._lockstep(requests, plans, seed)
        results: Dict[int, FilterResult] = {}
        for batch in groups.values():
            results.update(zip(batch, self._lockstep(
                [requests[index] for index in batch], [plans[index] for index in batch], seed
            )))
        return [results[index] for index in range(len(requests))]

    def _plan(self, request: FilterRequest, current_second: int) -> _Plan:
        history = request.history
        if history.is_empty:
            raise ValueError(
                f"object {history.object_id!r} has no readings; it cannot be filtered"
            )
        # Line 6 of Algorithm 2: never run more than 60 s past the last
        # reading — with no observations the cloud disperses into noise.
        t_end = int(min(history.last_second + self.config.silence_cap_seconds, current_second))
        resume = request.resume
        if resume is not None and resume[1] <= t_end:
            return _Plan(resume[0], resume[1], t_end, t_end - resume[1])
        t_state = history.first_second
        return _Plan(None, t_state, t_end, max(t_end - t_state, 0))

    def _lockstep(
        self, requests: Sequence[FilterRequest], plans: Sequence[_Plan], seed: int
    ) -> List[FilterResult]:
        """Advance one batch of equal-size clouds together, second by second.

        The clouds are stacked as consecutive blocks, longest replay
        first, so the clouds still replaying at step ``k`` are a prefix
        of the stack and each step works on a view of it (or, when only
        some blocks read something, on a gathered copy of those). Block
        ``b`` draws only its own object's uniforms at the second it
        replays, so every cloud ends bit-identical to a run of its own.
        Inputs are never mutated: the stack is a new array.
        """
        order = sorted(range(len(requests)), key=lambda index: -plans[index].steps)
        attrs: Dict[str, object] = {"objects": len(requests), "backend": "particle"}
        if len(requests) == 1:
            attrs["object"] = requests[0].history.object_id
        with obs.span("filter.run", **attrs):
            objects = object_words(seed, [requests[index].history.object_id for index in order])
            # The second a block holds before its first step.
            seconds = np.array([plans[index].t_state for index in order], dtype=np.int64)
            first = plans[order[0]].state
            size = self.config.num_particles if first is None else len(first)
            fresh = [block for block, index in enumerate(order) if plans[index].state is None]
            if fresh:
                seeded = self.initialize(
                    [requests[order[block]].history for block in fresh],
                    CounterDraws.at(objects[fresh], seconds[fresh], size),
                )
            if len(fresh) == len(order):
                stack = seeded
            else:
                clouds = [plans[index].state for index in order]
                for at, block in enumerate(fresh):
                    clouds[block] = seeded[at * size:(at + 1) * size]
                stack = ParticleSet.concatenate(clouds)
            resumed = len(order) - len(fresh)
            obs.add("filter.runs", len(requests))
            if resumed:
                obs.add("filter.resumed_runs", resumed)
            obs.add("filter.seconds_replayed", sum(plan.steps for plan in plans))

            reads = [requests[index].history.reading_at for index in order]
            steps = [plans[index].steps for index in order]
            negative = self.config.use_negative_information
            active = len(order)
            view = stack
            for step in range(steps[0]):
                if steps[active - 1] <= step:
                    while steps[active - 1] <= step:
                        active -= 1
                    view, reads = stack[: active * size], reads[:active]
                second = seconds[:active] + (step + 1)
                draws = CounterDraws.at(objects[:active], second, size)
                self.predict(view, draws, dt=1.0)
                readings = [reading_at(at) for reading_at, at in zip(reads, second.tolist())]
                silent = readings.count(None)
                if not silent:
                    self.observe(view, readings, draws)
                    continue
                if silent < active:
                    seen = [block for block in range(active) if readings[block] is not None]
                    self._on_blocks(
                        stack, seen, size, self.observe,
                        [readings[block] for block in seen], draws.take(seen),
                    )
                if not negative:
                    continue
                if silent == active:
                    self.observe_silence(view, draws)
                else:
                    quiet = [block for block in range(active) if readings[block] is None]
                    self._on_blocks(stack, quiet, size, self.observe_silence, draws.take(quiet))
        if len(order) == 1:
            return [FilterResult(particles=stack, end_second=plans[0].t_end)]
        position = {index: block for block, index in enumerate(order)}
        return [
            FilterResult(
                particles=stack[position[index] * size:(position[index] + 1) * size],
                end_second=plan.t_end,
            )
            for index, plan in enumerate(plans)
        ]

    @staticmethod
    def _on_blocks(
        stack: ParticleSet,
        blocks: List[int],
        size: int,
        phase: Callable[..., None],
        *args: object,
    ) -> None:
        """Run ``phase`` on a gathered copy of ``blocks``, then scatter it back."""
        rows = _block_rows(blocks, size)
        part = stack[rows]
        phase(part, *args)
        stack[rows] = part

    def predict(self, particles: ParticleSet, draws: CounterDraws, dt: float = 1.0) -> None:
        """Advance every particle by ``dt`` seconds (the motion model step).

        ``particles`` is a stack of ``len(draws)`` equal blocks, one per
        object, block ``b`` drawing from block ``b`` of ``draws``.
        Exposed as a public primitive (together with :meth:`observe` and
        :meth:`observe_silence`) so the :mod:`repro.filters` particle
        backend can drive the same predict/update sequence :meth:`run`
        executes.
        """
        with obs.timer("filter.predict"):
            self.motion.step(particles, draws, dt=dt)

    def observe_silence(self, particles: ParticleSet, draws: CounterDraws) -> None:
        """Negative-information extension: no reading is also evidence.

        Particles standing inside some reader's range during a silent
        second are penalized (the object would almost surely have been
        read there). Resampling is deferred until the weights degenerate,
        so repeated silent seconds do not add resampling noise. Blocks
        and draws are as in :meth:`predict`.
        """
        blocks = len(draws)
        size = len(particles) // blocks
        with obs.timer("filter.weight"):
            mask = self.sensing.reweight_negative(
                particles, self.config.negative_likelihood
            )
        obs.add("filter.silent_observations", blocks)
        with obs.timer("filter.normalize"):
            particles.normalize_weights(blocks)
        # A block wholly in covered space (e.g. dense deployments right
        # after initialization) gets no contrast from silence: the
        # normalization above undid its reweighting, and it stops here.
        contrast = np.flatnonzero(~mask.reshape(blocks, size).all(axis=1)).tolist()
        ess = (1.0 / (particles.weight.reshape(blocks, size)[contrast] ** 2).sum(axis=1)).tolist()
        for value in ess:
            self._record_ess(value, size)
        degenerate = [block for block, value in zip(contrast, ess) if value < size / 2.0]
        if degenerate:
            with obs.timer("filter.resample"):
                self._resample(particles, degenerate, size, draws)

    # ------------------------------------------------------------------
    def initialize(
        self, histories: Sequence[ReadingHistory], draws: CounterDraws
    ) -> ParticleSet:
        """Algorithm 2 line 5: seed every history's cloud within its older device's range.

        Returns a stack of one ``draws.size`` block per history, block
        ``b`` drawing from block ``b`` of ``draws`` (keyed by the
        history's first second), all seeded in one pass.
        """
        circles = [
            self.readers[history.initial_reader_id].detection_circle for history in histories
        ]
        with obs.timer("filter.init"):
            return self.motion.initialize_in_circles(circles, draws)

    def observe(
        self,
        particles: ParticleSet,
        reader_ids: Sequence[str],
        draws: CounterDraws,
    ) -> None:
        """Reweight, normalize, and resample on one observation per block.

        Block ``b`` was read by ``reader_ids[b]``; blocks and draws are as
        in :meth:`predict`.
        """
        blocks = len(draws)
        size = len(particles) // blocks
        with obs.timer("filter.weight"):
            mask = self.sensing.reweight(particles, reader_ids)
        obs.add("filter.observations", blocks)
        with obs.timer("filter.normalize"):
            particles.normalize_weights(blocks)
        # A lone cloud keeps a 1-D call here: same bits, fewer numpy calls.
        hits = [mask.any()] if blocks == 1 else mask.reshape(blocks, size).any(axis=1).tolist()
        depleted = [block for block, hit in enumerate(hits) if not hit]
        if depleted:
            # Particle depletion: no hypothesis is consistent with the
            # observation (e.g. the cloud dispersed during a long silent
            # stretch, or the object backtracked against all particles).
            # Recover by re-seeding within the observed reader's range —
            # the object is certainly there (paper Section 3.2, Case 1).
            # The reseed overwrites the block, normalized weights included.
            obs.add("filter.depletion_reseeds", len(depleted))
            # A depleted cloud is the extreme of weight degeneracy: record
            # it as ESS 1.0 so the epoch-level `accuracy.ess_mean` proxy
            # actually collapses under reader outages instead of silently
            # omitting the worst-off objects from the mean.
            for _ in depleted:
                self._record_ess(1.0, size)
            circles = [self.readers[reader_ids[block]].detection_circle for block in depleted]
            with obs.timer("filter.init"):
                reseeded = self.motion.initialize_in_circles(circles, draws.take(depleted))
            particles[_block_rows(depleted, size)] = reseeded
        live = [block for block, hit in enumerate(hits) if hit]
        if not live:
            return
        if obs.enabled():
            # Effective sample size before resampling: the paper's proxy
            # for weight degeneracy, exported per observation so the
            # epoch event log can trend accuracy drift.
            weight = particles.weight.reshape(blocks, size)
            for value in (1.0 / (weight[live] ** 2).sum(axis=1)).tolist():
                self._record_ess(value, size)
        with obs.timer("filter.resample"):
            self._resample(particles, live, size, draws)

    def _resample(
        self,
        particles: ParticleSet,
        blocks: List[int],
        size: int,
        draws: CounterDraws,
    ) -> None:
        """Resample each of ``blocks`` within itself, in one resampler call.

        The resampler gets the blocks' weight rows and their ``RESAMPLE``
        uniforms, one row per block, and returns one row of picks per
        block.
        """
        weight = particles.weight.reshape(-1, size)
        rows: Union[slice, np.ndarray] = slice(None)
        if len(blocks) < len(weight):
            weight = weight[blocks]
            rows = _block_rows(blocks, size)
            draws = draws.take(blocks)
        picks = self.resampler(weight, size, partial(draws.block_uniforms, Draw.RESAMPLE))
        if len(particles) > size:
            picks += np.array(blocks)[:, None] * size
        particles.take(picks.reshape(-1), rows, size)

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



def _block_rows(blocks: Sequence[int], size: int) -> np.ndarray:
    """The stack rows of ``blocks``, in block order."""
    return (np.array(blocks)[:, None] * size + np.arange(size)).reshape(-1)
