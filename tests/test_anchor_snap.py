"""Bit-identity of the stacked anchor snap (paper Algorithm 2, lines 32-36).

The candidate-table ``CompiledAnchors.nearest`` and the stacked
``particles_to_anchor_distribution`` must reproduce, bit for bit and key
for key, a full distance matrix over every anchor and a per-object
masked-sum loop. Both references are kept here verbatim.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.obs as obs
from repro.collector.collector import DeviceRun, EventDrivenCollector, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.core import CompiledAnchors, CompiledGraph, ParticleSet
from repro.core.discretize import particles_to_anchor_distribution
from repro.core.filter import FilterRequest, ParticleFilter
from repro.core.preprocessing import PreprocessingModule
from repro.filters.registry import create_backend
from repro.floorplan import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.graph import build_anchor_index, build_walking_graph
from repro.rfid import deploy_readers_uniform
from repro.rfid.readings import RawReading
from tests.streams import draws_for

PLANS = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}


def _world(name: str, spacing: float = 1.0):
    graph = build_walking_graph(PLANS[name]())
    anchors = build_anchor_index(graph, spacing)
    compiled = CompiledGraph(graph)
    return compiled, CompiledAnchors(anchors, compiled)


WORLDS = {name: _world(name) for name in PLANS}


def reference_nearest(anchors: CompiledAnchors, edge, offset) -> np.ndarray:
    """The full distance matrix over every anchor."""
    px, py = anchors.compiled_graph.points(edge, offset)
    dx = px[:, None] - anchors.x[None, :]
    dy = py[:, None] - anchors.y[None, :]
    return anchors.ap_ids[np.argmin(dx * dx + dy * dy, axis=1)]


def reference_distribution(
    particles: ParticleSet, anchors: CompiledAnchors
) -> Dict[int, float]:
    """One object at a time: a masked sum per anchor."""
    if len(particles) == 0:
        return {}
    anchor_ids = reference_nearest(anchors, particles.edge, particles.offset)

    weights = particles.weight
    total = weights.sum()
    if total <= 0 or not np.isfinite(total):
        weights = np.full(len(particles), 1.0 / len(particles))
        total = 1.0

    distribution: Dict[int, float] = {}
    for ap_id in np.unique(anchor_ids):
        mass = float(weights[anchor_ids == ap_id].sum() / total)
        if mass > 0.0:
            distribution[int(ap_id)] = mass
    return distribution


def _items(distribution: Dict[int, float]) -> List[tuple]:
    """Keys in order with exact float bits, so order and value both count."""
    return [(k, float(v).hex()) for k, v in distribution.items()]


def _cloud(anchors: CompiledAnchors, n: int, seed: int, edges=None) -> ParticleSet:
    """``n`` uniformly weighted particles on ``edges`` (default: every edge).

    A few edges crowd many particles onto each anchor.
    """
    graph = anchors.compiled_graph
    rng = np.random.default_rng(seed)
    ps = ParticleSet.empty(n)
    ps.edge[:] = rng.choice(np.arange(graph.num_edges) if edges is None else edges, n)
    ps.offset[:] = rng.uniform(0.0, 1.0, n) * graph.edge_length[ps.edge]
    return ps


def _local_cloud(anchors: CompiledAnchors, n: int, seed: int) -> ParticleSet:
    return _cloud(anchors, n, seed, edges=[0, 1])


# ----------------------------------------------------------------------
# nearest anchor
# ----------------------------------------------------------------------
@st.composite
def positions(draw):
    name = draw(st.sampled_from(sorted(PLANS)))
    compiled, anchors = WORLDS[name]
    edge = draw(st.integers(min_value=0, max_value=compiled.num_edges - 1))
    length = float(compiled.edge_length[edge])
    legs = compiled.leg_cum[compiled.leg_ptr[edge] : compiled.leg_ptr[edge + 1]]
    spacing = anchors.anchor_index.spacing
    bins = int(np.ceil(length / spacing))
    offset = draw(
        st.one_of(
            st.just(0.0),
            st.just(length),
            st.integers(min_value=0, max_value=bins).map(lambda b: b * spacing),
            st.sampled_from([float(c) for c in legs]),
            st.floats(min_value=0.0, max_value=length, allow_nan=False),
        )
    )
    return name, edge, offset


class TestNearest:
    @settings(max_examples=300, deadline=None)
    @given(position=positions())
    def test_matches_the_full_matrix(self, position):
        name, edge, offset = position
        _, anchors = WORLDS[name]
        e = np.array([edge], dtype=np.int64)
        o = np.array([offset])
        assert anchors.nearest(e, o).tolist() == reference_nearest(anchors, e, o).tolist()

    @pytest.mark.parametrize("name", sorted(PLANS))
    @pytest.mark.parametrize("spacing", [1.0, 0.7, 2.5])
    def test_every_bin_edge_leg_vertex_and_end(self, name, spacing):
        compiled, anchors = _world(name, spacing)
        edges, offsets = [], []
        for e in range(compiled.num_edges):
            length = float(compiled.edge_length[e])
            legs = compiled.leg_cum[compiled.leg_ptr[e] : compiled.leg_ptr[e + 1]]
            marks = [b * spacing for b in range(int(np.ceil(length / spacing)) + 1)]
            marks += [float(c) for c in legs] + [length]
            for mark in marks:
                for nudge in (-1e-9, 0.0, 1e-9):
                    edges.append(e)
                    offsets.append(min(max(mark + nudge, 0.0), length))
        e = np.array(edges, dtype=np.int64)
        o = np.array(offsets)
        assert np.array_equal(anchors.nearest(e, o), reference_nearest(anchors, e, o))

    def test_multi_leg_door_spurs_are_covered(self):
        compiled, anchors = WORLDS["paper"]
        spurs = np.flatnonzero(np.diff(compiled.leg_ptr) > 1)
        assert len(spurs) > 0
        e = np.repeat(spurs, 200)
        o = np.tile(np.linspace(0.0, 1.0, 200), len(spurs)) * compiled.edge_length[e]
        assert np.array_equal(anchors.nearest(e, o), reference_nearest(anchors, e, o))

    def test_candidate_rows_stay_short_on_the_paper_plan(self):
        _, anchors = _world("paper")
        anchors.nearest(np.array([0]), np.array([0.0]))
        assert anchors._table is not None
        assert anchors._table.candidates.shape[1] <= 5


class TestLazyTable:
    def test_constructing_a_backend_does_not_build_the_table(self, paper_graph,
                                                             paper_anchors,
                                                             paper_readers):
        backend = create_backend(
            "particle", paper_graph, paper_anchors, paper_readers, DEFAULT_CONFIG
        )
        assert backend.compiled_anchors._table is None
        backend.compiled_anchors.nearest(np.array([0]), np.array([0.0]))
        assert backend.compiled_anchors._table is not None


# ----------------------------------------------------------------------
# distributions
# ----------------------------------------------------------------------
class TestDistribution:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 100, 200, 512])
    def test_uniform_weights(self, n):
        _, anchors = WORLDS["paper"]
        sets = [_local_cloud(anchors, n, seed) for seed in range(4)]
        sets += [_cloud(anchors, n, 10 + seed) for seed in range(4)]
        got = particles_to_anchor_distribution(sets, anchors)
        for ps, dist in zip(sets, got):
            assert _items(dist) == _items(reference_distribution(ps, anchors))

    def test_uniform_sums_are_not_running_sums(self):
        _, anchors = WORLDS["small"]
        w = 1.0 / 100
        sums = anchors.uniform_sums(100, w)
        assert any(sums[k] != k * w for k in range(101))

    def test_non_uniform_weights_from_negative_information(self, paper_readers_by_id):
        compiled, anchors = WORLDS["paper"]
        config = DEFAULT_CONFIG.with_overrides(use_negative_information=True)
        pf = ParticleFilter(compiled, paper_readers_by_id, config)
        reader_id = sorted(paper_readers_by_id)[0]
        history = ReadingHistory("o1", (DeviceRun(reader_id, [0]),))
        sets = []
        for cloud in range(12):
            ps = pf.initialize([history], draws_for(5, 1, config.num_particles, cloud))
            for second in range(3):
                draws = draws_for(5, 1, config.num_particles, 100 * cloud + second)
                pf.predict(ps, draws)
                pf.observe_silence(ps, draws)
            sets.append(ps)
        assert any(len(set(ps.weight.tolist())) > 1 for ps in sets)
        got = particles_to_anchor_distribution(sets, anchors)
        for ps, dist in zip(sets, got):
            assert _items(dist) == _items(reference_distribution(ps, anchors))

    def test_random_zero_non_finite_and_empty_weights(self):
        _, anchors = WORLDS["paper"]
        rng = np.random.default_rng(9)
        sets = []
        for n in (5, 64, 100):
            random = _local_cloud(anchors, n, n)
            random.weight[:] = rng.random(n)
            sparse = _local_cloud(anchors, n, n + 1)
            sparse.weight[:] = np.where(np.arange(n) % 2 == 0, 0.0, 1.0 / n)
            zero = _local_cloud(anchors, n, n + 2)
            zero.weight[:] = 0.0
            nan = _local_cloud(anchors, n, n + 3)
            nan.weight[0] = np.nan
            inf = _local_cloud(anchors, n, n + 4)
            inf.weight[:] = np.inf
            huge = _local_cloud(anchors, n, n + 5)
            huge.weight[:] = 1e308
            negative = _local_cloud(anchors, n, n + 6)
            negative.weight[:] = -1.0 / n
            sets += [random, sparse, zero, nan, inf, huge, negative, ParticleSet.empty(0)]
        with np.errstate(over="ignore"):  # the 1e308 sets overflow their sums
            got = particles_to_anchor_distribution(sets, anchors)
            expected = [reference_distribution(ps, anchors) for ps in sets]
        assert [_items(d) for d in got] == [_items(d) for d in expected]

    def test_no_sets_and_only_empty_sets(self):
        _, anchors = WORLDS["small"]
        assert particles_to_anchor_distribution([], anchors) == []
        empty = [ParticleSet.empty(0), ParticleSet.empty(0)]
        assert particles_to_anchor_distribution(empty, anchors) == [{}, {}]

    def test_alone_and_in_a_batch_of_200_agree(self):
        _, anchors = WORLDS["paper"]
        sets = [_local_cloud(anchors, 64, seed) for seed in range(200)]
        sets[17].weight[:] = np.random.default_rng(0).random(64)
        batch = particles_to_anchor_distribution(sets, anchors)
        for i in (0, 17, 99, 199):
            (alone,) = particles_to_anchor_distribution([sets[i]], anchors)
            assert _items(alone) == _items(batch[i])


# ----------------------------------------------------------------------
# the preprocessing module snaps once per call
# ----------------------------------------------------------------------
class TestOneSnapPerProcess:
    @pytest.fixture
    def module_and_collector(self, paper_plan, paper_graph, paper_anchors):
        readers = deploy_readers_uniform(paper_plan, 19, 2.0)
        module = PreprocessingModule(
            paper_graph, paper_anchors, readers, DEFAULT_CONFIG.with_overrides(seed=3)
        )
        collector = EventDrivenCollector({f"t{i}": f"o{i}" for i in range(6)})
        for second in range(4):
            collector.ingest_second(
                second,
                [RawReading(second + 0.5, f"t{i}", readers[i].reader_id) for i in range(6)],
            )
        return module, collector

    def test_one_span_and_per_object_results(self, module_and_collector):
        module, collector = module_and_collector
        objects = [f"o{i}" for i in range(6)]
        obs.enable(fresh=True)
        try:
            table = module.process(objects, collector, 3, 3)
            spans = [s for s in obs.tracer().spans() if s.name == "preprocess.anchor_snap"]
        finally:
            obs.disable()
        assert len(spans) == 1
        assert sorted(table.objects()) == objects

        module.cache.clear()
        alone = module.process(["o4"], collector, 3, 3)
        assert _items(alone.distribution_of("o4")) == _items(table.distribution_of("o4"))

    def test_backend_posteriors_equal_per_run_posteriors(self, module_and_collector):
        module, collector = module_and_collector
        backend = module.backend
        requests = [
            FilterRequest(collector.history(f"o{i}")) for i in range(6)
        ]
        runs = backend.run_many(requests, 3)
        stacked = backend.posteriors(runs)
        per_run = [
            particles_to_anchor_distribution([run.state], backend.compiled_anchors)[0]
            for run in runs
        ]
        assert [_items(d) for d in stacked] == [_items(d) for d in per_run]
