"""Micro-benchmarks of the system's hot operations.

These are classic pytest-benchmark timings (many rounds) of the kernels
everything else is built from: particle stepping, reweighting,
resampling, anchor snapping, network distances, and the two query
evaluation algorithms.
"""

import numpy as np
import pytest

from repro.core import (
    CompiledAnchors,
    CompiledGraph,
    DeviceSensingModel,
    GraphMotionModel,
    particles_to_anchor_distribution,
    systematic_resample,
)
from repro.floorplan import paper_office_plan
from repro.geometry import Point, Rect
from repro.graph import build_anchor_index, build_walking_graph
from repro.index import AnchorObjectTable
from repro.queries import KNNQuery, RangeQuery, evaluate_knn_query, evaluate_range_query
from repro.rfid import deploy_readers_uniform, reader_by_id


@pytest.fixture(scope="module")
def world():
    plan = paper_office_plan()
    graph = build_walking_graph(plan)
    anchors = build_anchor_index(graph, 1.0)
    readers = deploy_readers_uniform(plan, 19, 2.0)
    compiled = CompiledGraph(graph)
    compiled_anchors = CompiledAnchors(anchors, compiled)
    return plan, graph, anchors, readers, compiled, compiled_anchors


@pytest.fixture(scope="module")
def cloud(world):
    _, _, _, readers, compiled, _ = world
    motion = GraphMotionModel(compiled)
    rng = np.random.default_rng(0)
    particles = motion.initialize_in_circle(
        256, readers[0].detection_circle, rng
    )
    for _ in range(10):
        motion.step(particles, [rng])
    return motion, particles


def test_bench_particle_step(benchmark, world, cloud):
    motion, particles = cloud
    rng = np.random.default_rng(1)
    benchmark(motion.step, particles, [rng])


def test_bench_sensing_reweight(benchmark, world, cloud):
    _, _, _, readers, compiled, _ = world
    _, particles = cloud
    sensing = DeviceSensingModel(compiled, reader_by_id(readers))
    benchmark(sensing.reweight, particles, ["d5"])


def test_bench_systematic_resample(benchmark):
    rng = np.random.default_rng(2)
    weights = rng.random(256)
    benchmark(systematic_resample, weights, 256, rng)


def test_bench_anchor_snap(benchmark, world, cloud):
    _, _, _, _, _, compiled_anchors = world
    _, particles = cloud
    benchmark(particles_to_anchor_distribution, [particles], compiled_anchors)


def test_bench_network_distance(benchmark, world):
    _, graph, _, _, _, _ = world
    loc_a, _ = graph.locate(Point(10, 5))
    loc_b, _ = graph.locate(Point(40, 27))
    benchmark(graph.distance, loc_a, loc_b)


def test_bench_locate(benchmark, world):
    _, graph, _, _, _, _ = world
    benchmark(graph.locate, Point(33.3, 17.2))


def _loaded_table(anchors, objects=200, rng_seed=3):
    rng = np.random.default_rng(rng_seed)
    table = AnchorObjectTable()
    all_anchors = anchors.anchors
    for i in range(objects):
        picks = rng.integers(0, len(all_anchors), size=6)
        masses = rng.random(6)
        masses /= masses.sum()
        table.set_distribution(
            f"o{i}",
            {int(all_anchors[p].ap_id): float(m) for p, m in zip(picks, masses)},
        )
    return table


def test_bench_range_query_eval(benchmark, world):
    plan, _, anchors, _, _, _ = world
    table = _loaded_table(anchors)
    query = RangeQuery("q", Rect(15, 3, 30, 12))
    benchmark(evaluate_range_query, query, plan, anchors, table)


def test_bench_knn_query_eval(benchmark, world):
    _, graph, anchors, _, _, _ = world
    table = _loaded_table(anchors)
    query = KNNQuery("q", Point(30, 5), k=3)
    benchmark(evaluate_knn_query, query, graph, anchors, table)
