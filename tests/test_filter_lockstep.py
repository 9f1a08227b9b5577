"""Bit identity of the lockstep particle filter kernel.

``ParticleFilter.run_many`` advances a batch of objects together over
stacked ``(objects x N)`` particle arrays, each object drawing its own
counter-based uniforms, keyed by its id and the second it steps. The
reference below is the per-object run loop it replaced, kept verbatim in
spirit: one object at a time, one cloud per call, 1-D normalization and
ESS. Every array of every result must match it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from functools import partial

from repro import obs
from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.core import CompiledGraph, ParticleSet
from repro.core.filter import FilterRequest, ParticleFilter
from repro.core.resampling import RESAMPLERS
from repro.floorplan import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.graph import build_walking_graph
from repro.rfid import deploy_readers_uniform, reader_by_id
from repro.rng import CounterDraws, Draw, object_words
from tests.streams import seed_cloud

PLANS = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}

FIELDS = ("edge", "offset", "direction", "speed", "dwelling", "weight")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@lru_cache(maxsize=None)
def world(name: str, activation_range: float):
    plan = PLANS[name]()
    compiled = CompiledGraph(build_walking_graph(plan))
    readers = reader_by_id(deploy_readers_uniform(plan, 6, activation_range))
    return compiled, readers


# ----------------------------------------------------------------------
# reference: the per-object run loop the lockstep kernel replaced
# ----------------------------------------------------------------------
def reference_run(
    pf: ParticleFilter,
    history: ReadingHistory,
    current_second: int,
    seed: int,
    resume: Optional[Tuple[ParticleSet, int]] = None,
) -> Tuple[ParticleSet, int]:
    t_end = int(min(history.last_second + pf.config.silence_cap_seconds, current_second))
    objects = object_words(seed, [history.object_id])
    if resume is not None and resume[1] <= t_end:
        particles = resume[0].copy()
        t_state = resume[1]
    else:
        reader = pf.readers[history.initial_reader_id]
        t_state = history.first_second
        draws = CounterDraws.at(objects, np.array([t_state]), pf.config.num_particles)
        particles = pf.motion.initialize_in_circles([reader.detection_circle], draws)
    for second in range(t_state + 1, t_end + 1):
        draws = CounterDraws.at(objects, np.array([second]), len(particles))
        pf.motion.step(particles, draws, dt=1.0)
        reader_id = history.reading_at(second)
        if reader_id is None:
            if pf.config.use_negative_information:
                _reference_silence(pf, particles, draws)
            continue
        _reference_observe(pf, particles, reader_id, draws)
    return particles, t_end


def _reference_normalize(particles: ParticleSet) -> None:
    total = particles.weight.sum()
    if total <= 0.0 or not np.isfinite(total):
        particles.weight[:] = 1.0 / max(len(particles), 1)
    else:
        particles.weight /= total


def _reference_take(particles: ParticleSet, indices: np.ndarray) -> None:
    for name in FIELDS[:-1]:
        getattr(particles, name)[:] = getattr(particles, name)[indices]
    particles.weight[:] = 1.0 / max(len(indices), 1)


def _reference_resample(pf, particles, draws) -> None:
    source = partial(draws.block_uniforms, Draw.RESAMPLE)
    _reference_take(particles, pf.resampler(particles.weight, len(particles), source))


def _reference_observe(pf, particles, reader_id, draws) -> None:
    reader = pf.readers[reader_id]
    x, y = pf.compiled.points(particles.edge, particles.offset)
    dx = x - reader.position.x
    dy = y - reader.position.y
    mask = dx * dx + dy * dy <= reader.activation_range ** 2 + 1e-12
    particles.weight *= np.where(mask, pf.config.weight_hit, pf.config.weight_miss)
    if not mask.any():
        reseeded = pf.motion.initialize_in_circles([reader.detection_circle], draws)
        for name in FIELDS:
            getattr(particles, name)[:] = getattr(reseeded, name)
        return
    _reference_normalize(particles)
    _reference_resample(pf, particles, draws)


def _reference_silence(pf, particles, draws) -> None:
    mask = pf.sensing.in_any_range_mask(particles)
    particles.weight *= np.where(mask, pf.config.negative_likelihood, 1.0)
    _reference_normalize(particles)
    if mask.all():
        return
    ess = 1.0 / float(np.sum(particles.weight ** 2))
    if ess < len(particles) / 2.0:
        _reference_resample(pf, particles, draws)


def assert_same(a: ParticleSet, b: ParticleSet) -> None:
    for name in FIELDS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        # Bytes, not values: -0.0 and NaN payloads must match too.
        assert left.tobytes() == right.tobytes(), name


# ----------------------------------------------------------------------
# batches
# ----------------------------------------------------------------------
@st.composite
def histories(draw, reader_ids: List[str], now: int, object_id: str) -> ReadingHistory:
    first = draw(st.sampled_from(reader_ids))
    start = draw(st.integers(0, now))
    seconds = sorted(draw(st.sets(st.integers(start, min(start + 6, now)), min_size=1)))
    runs = [DeviceRun(first, [start, *[s for s in seconds if s > start]])]
    after = runs[0].seconds[-1] + 1
    if after <= now and draw(st.booleans()):
        # A second device, often far from the first: the cloud may not
        # reach it in time, which forces a depletion reseed.
        second = draw(st.sampled_from([r for r in reader_ids if r != first]))
        begin = draw(st.integers(after, min(after + 20, now)))
        runs.append(DeviceRun(second, sorted({begin, *draw(
            st.sets(st.integers(begin, min(begin + 4, now)), max_size=3)
        )})))
    return ReadingHistory(object_id, tuple(runs))


@st.composite
def batches(draw, min_objects: int = 1, max_objects: int = 6):
    """``(filter, current_second, seed, [(history, resume)])`` for one batch."""
    compiled, readers = world(
        draw(st.sampled_from(sorted(PLANS))),
        # 60 m puts every particle in range: silence has no contrast.
        draw(st.sampled_from([2.0, 4.0, 60.0])),
    )
    config = DEFAULT_CONFIG.with_overrides(
        num_particles=draw(st.sampled_from([1, 7, 16, 64])),
        use_negative_information=draw(st.booleans()),
        negative_likelihood=draw(st.sampled_from([0.01, 0.5])),
        room_exit_probability=draw(st.sampled_from([0.1, 0.6])),
        door_entry_probability=draw(st.sampled_from([0.2, 0.9])),
    )
    pf = ParticleFilter(
        compiled, readers, config,
        resampler=RESAMPLERS[draw(st.sampled_from(sorted(RESAMPLERS)))],
    )
    now = draw(st.integers(5, 90))
    seed = draw(st.integers(0, 2**32 - 1))
    reader_ids = sorted(readers)
    objects = []
    for index in range(draw(st.integers(min_objects, max_objects))):
        history = draw(histories(reader_ids, now, f"o{index}"))
        t_end = int(min(history.last_second + config.silence_cap_seconds, now))
        mode = draw(st.sampled_from(["cold", "one_second", "midway", "future", "resized"]))
        resume = None
        if mode != "cold":
            size = config.num_particles + 3 if mode == "resized" else config.num_particles
            state = seed_cloud(
                pf.motion, size, readers[history.latest_reader_id].detection_circle, seed ^ index
            )
            state_second = {
                "one_second": t_end - 1,
                "midway": (history.first_second + t_end) // 2,
                "future": t_end + draw(st.integers(1, 5)),
                "resized": t_end - draw(st.integers(0, 3)),
            }[mode]
            resume = (state, state_second)
        objects.append((history, resume))
    return pf, now, seed, objects


def check_batch(pf, now, seed, objects) -> None:
    inputs = [None if resume is None else resume[0].copy() for _, resume in objects]
    requests = [FilterRequest(history, resume) for history, resume in objects]
    results = pf.run_many(requests, now, seed)
    assert len(results) == len(objects)
    for (history, resume), result, before in zip(objects, results, inputs):
        expected, t_end = reference_run(pf, history, now, seed, resume)
        assert result.end_second == t_end
        assert_same(result.particles, expected)
        if resume is not None:
            assert_same(resume[0], before)  # the kernel never writes to its inputs


class TestLockstepBitIdentity:
    @settings(max_examples=120, deadline=None)
    @given(case=batches())
    def test_run_many_matches_per_object_loop(self, case):
        check_batch(*case)

    @settings(max_examples=3, deadline=None)
    @given(case=batches(min_objects=200, max_objects=200))
    def test_batch_of_two_hundred(self, case):
        check_batch(*case)

    def test_run_is_a_batch_of_one(self):
        compiled, readers = world("paper", 2.0)
        pf = ParticleFilter(compiled, readers, DEFAULT_CONFIG)
        history = ReadingHistory("o1", (DeviceRun("d1", [3, 4, 6]), DeviceRun("d3", [12])))
        result = pf.run(history, 40, seed=9)
        expected, t_end = reference_run(pf, history, 40, 9)
        assert result.end_second == t_end
        assert_same(result.particles, expected)


class TestBatching:
    def _objects(self, pf, count):
        reader_ids = sorted(pf.readers)
        return [
            ReadingHistory(f"o{i}", (DeviceRun(reader_ids[i % len(reader_ids)], [i, i + 2]),))
            for i in range(count)
        ]

    def _filter_spans(self):
        return [
            span["attrs"] for span in obs.snapshot()["trace"]["spans"]
            if span["name"] == "filter.run"
        ]

    def test_repeated_object_draws_alike(self):
        # Draws are keyed by object and second, not by a stream that two
        # requests could interleave: a repeated request gets the same run.
        compiled, readers = world("paper", 2.0)
        pf = ParticleFilter(compiled, readers, DEFAULT_CONFIG)
        histories = self._objects(pf, 2)
        requests = [FilterRequest(histories[0]), FilterRequest(histories[1]),
                    FilterRequest(histories[0])]
        first, _, again = pf.run_many(requests, 30, 11)
        assert_same(first.particles, again.particles)
        assert_same(first.particles, pf.run(histories[0], 30, seed=11).particles)

    def test_own_generators_run_one_batch_per_particle_count(self):
        compiled, readers = world("paper", 2.0)
        pf = ParticleFilter(compiled, readers, DEFAULT_CONFIG)
        histories = self._objects(pf, 5)
        odd = seed_cloud(pf.motion, 10, readers["d2"].detection_circle, 0)
        requests = [
            FilterRequest(h, (odd, 25) if i == 2 else None)
            for i, h in enumerate(histories)
        ]
        obs.enable()
        pf.run_many(requests, 30)
        spans = self._filter_spans()
        assert sorted(span["objects"] for span in spans) == [1, 4]
        assert {span["backend"] for span in spans} == {"particle"}

    def test_counters_keep_their_totals(self):
        compiled, readers = world("small", 4.0)
        config = DEFAULT_CONFIG.with_overrides(use_negative_information=True)
        pf = ParticleFilter(compiled, readers, config)
        histories = self._objects(pf, 8)
        resume = seed_cloud(pf.motion, config.num_particles, readers["d1"].detection_circle, 1)

        def counters(run):
            obs.disable()
            obs.reset()
            obs.enable()
            run()
            totals = {}
            for item in obs.snapshot()["metrics"]["counters"]:
                totals[item["name"]] = totals.get(item["name"], 0) + item["value"]
            return totals

        def requests():
            return [
                FilterRequest(h, (resume, 20) if i % 3 == 0 else None)
                for i, h in enumerate(histories)
            ]

        batched = counters(lambda: pf.run_many(requests(), 40))
        serial = counters(lambda: [pf.run_many([r], 40) for r in requests()])
        assert batched == serial
        for name in ("filter.runs", "filter.resumed_runs", "filter.seconds_replayed",
                     "filter.observations", "filter.silent_observations"):
            assert batched.get(name, 0) > 0, name


class TestRowReductions:
    """2-D row reductions equal each row's own 1-D reduction, bit for bit."""

    @pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
    def test_stacked_normalize_matches_each_block(self, bad):
        weight = np.random.default_rng(4).random(4 * 7)
        weight[7:14] = bad  # one block whose mass collapsed (or blew up)
        stacked = ParticleSet.empty(len(weight))
        stacked.weight[:] = weight
        stacked.normalize_weights(4)
        for block in range(4):
            alone = ParticleSet.empty(7)
            alone.weight[:] = weight[block * 7:(block + 1) * 7]
            _reference_normalize(alone)
            assert stacked.weight[block * 7:(block + 1) * 7].tobytes() == alone.weight.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.integers(1, 200),
        size=st.sampled_from([1, 2, 7, 8, 9, 64, 127, 128, 129, 300]),
        scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_row_sums_and_cumsums(self, rows, size, scale, seed):
        weight = np.random.default_rng(seed).random((rows, size)) * scale
        sums = weight.sum(axis=1)
        squares = (weight ** 2).sum(axis=1)
        cumsums = np.cumsum(weight, axis=1)
        for row in range(rows):
            assert sums[row] == weight[row].sum()
            assert squares[row] == np.sum(weight[row] ** 2)
            assert cumsums[row].tobytes() == np.cumsum(weight[row]).tobytes()
