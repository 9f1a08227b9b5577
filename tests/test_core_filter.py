"""Tests for the sensing model, discretization, and the SIR filter (Alg. 2)."""

import numpy as np
import pytest

from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.core import (
    CompiledAnchors,
    CompiledGraph,
    DeviceSensingModel,
    ParticleFilter,
    particles_to_anchor_distribution,
)
from repro.geometry import Point
from repro.rfid import RFIDReader
from tests.streams import seed_cloud


@pytest.fixture(scope="module")
def small_compiled(small_graph):
    return CompiledGraph(small_graph)


@pytest.fixture(scope="module")
def small_compiled_anchors(small_anchors, small_compiled):
    return CompiledAnchors(small_anchors, small_compiled)


@pytest.fixture(scope="module")
def small_readers(small_graph):
    # Three readers along the small plan's hallway, like paper Figure 1.
    return {
        "d1": RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
        "d2": RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
        "d3": RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
    }


@pytest.fixture
def small_filter(small_compiled, small_readers):
    return ParticleFilter(small_compiled, small_readers, DEFAULT_CONFIG)


def history(*runs):
    return ReadingHistory(
        "o1", tuple(DeviceRun(reader, list(seconds)) for reader, seconds in runs)
    )


class TestSensingModel:
    def test_rejects_bad_weights(self, small_compiled, small_readers):
        with pytest.raises(ValueError):
            DeviceSensingModel(small_compiled, small_readers, 0.1, 0.5)
        with pytest.raises(ValueError):
            DeviceSensingModel(small_compiled, small_readers, 0.5, -0.1)

    def test_reweight_hits_and_misses(self, small_compiled, small_readers, small_filter, rng):
        sensing = DeviceSensingModel(small_compiled, small_readers, 0.9, 0.01)
        ps = seed_cloud(small_filter.motion, 64, small_readers["d2"].detection_circle, 12345)
        # Pin half the cloud well away from d2 and half at its center.
        far_loc, _ = small_compiled.graph.locate(Point(1.0, 5.0))
        ps.edge[:32] = far_loc.edge_id
        ps.offset[:32] = far_loc.offset
        near_loc, _ = small_compiled.graph.locate(small_readers["d2"].position)
        ps.edge[32:] = near_loc.edge_id
        ps.offset[32:] = near_loc.offset
        mask = sensing.reweight(ps, ["d2"])
        assert not mask[:32].any()
        assert mask[32:].all()
        assert np.allclose(ps.weight[:32], 0.01 / 64)
        assert np.allclose(ps.weight[32:], 0.9 / 64)


class TestDiscretization:
    def test_distribution_sums_to_one(self, small_filter, small_compiled, small_compiled_anchors, small_readers, rng):
        ps = seed_cloud(small_filter.motion, 64, small_readers["d2"].detection_circle, 12345)
        (dist,) = particles_to_anchor_distribution([ps], small_compiled_anchors)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_anchors_near_particles(self, small_filter, small_compiled, small_compiled_anchors, small_readers, small_anchors, rng):
        ps = seed_cloud(small_filter.motion, 64, small_readers["d2"].detection_circle, 12345)
        (dist,) = particles_to_anchor_distribution([ps], small_compiled_anchors)
        for ap_id in dist:
            anchor = small_anchors.anchor(ap_id)
            assert anchor.point.distance_to(Point(10, 5)) <= 3.0

    def test_empty_particles(self, small_compiled, small_compiled_anchors):
        from repro.core import ParticleSet

        dists = particles_to_anchor_distribution(
            [ParticleSet.empty(0)], small_compiled_anchors
        )
        assert dists == [{}]

    def test_weighted_mass(self, small_compiled, small_compiled_anchors, small_graph):
        from repro.core import ParticleSet

        ps = ParticleSet.empty(4)
        loc_a, _ = small_graph.locate(Point(2, 5))
        loc_b, _ = small_graph.locate(Point(18, 5))
        ps.edge[:2] = loc_a.edge_id
        ps.offset[:2] = loc_a.offset
        ps.edge[2:] = loc_b.edge_id
        ps.offset[2:] = loc_b.offset
        ps.weight[:] = [0.4, 0.4, 0.1, 0.1]
        (dist,) = particles_to_anchor_distribution([ps], small_compiled_anchors)
        near_a = sum(
            p for ap, p in dist.items()
            if small_compiled_anchors.anchor_index.anchor(ap).point.x < 10
        )
        assert near_a == pytest.approx(0.8)


class TestParticleFilter:
    def test_requires_readings(self, small_filter):
        with pytest.raises(ValueError):
            small_filter.run(ReadingHistory("o1", tuple()), 10, seed=0)

    def test_initial_cloud_in_older_device_range(self, small_filter, small_compiled, small_readers, rng):
        result = small_filter.run(history(("d2", [0])), current_second=0, seed=12345)
        xs, ys = small_compiled.points(result.particles.edge, result.particles.offset)
        center = small_readers["d2"].position
        for x, y in zip(xs, ys):
            assert center.distance_to(Point(x, y)) <= 2.0 + 0.2

    def test_direction_inference_figure1(self, small_filter, small_compiled, small_readers, rng):
        # Seen at d2 then d3 moving right: after leaving d3, most mass
        # must be at or right of d3, not back toward d2.
        hist = history(("d2", [0, 1]), ("d3", [7, 8]))
        result = small_filter.run(hist, current_second=12, seed=12345)
        xs, _ = small_compiled.points(result.particles.edge, result.particles.offset)
        d3_x = small_readers["d3"].position.x
        frac_right = (xs >= d3_x - 1.0).mean()
        assert frac_right > 0.7

    def test_silence_cap(self, small_filter, rng):
        hist = history(("d2", [0, 1, 2]))
        result = small_filter.run(hist, current_second=500, seed=12345)
        assert result.end_second == 2 + int(DEFAULT_CONFIG.silence_cap_seconds)

    def test_end_second_at_current_when_recent(self, small_filter, rng):
        hist = history(("d2", [0, 1, 2]))
        result = small_filter.run(hist, current_second=10, seed=12345)
        assert result.end_second == 10

    def test_resume_equivalent_semantics(self, small_filter, rng):
        hist = history(("d2", [0, 1]), ("d3", [7, 8]))
        full = small_filter.run(hist, current_second=8, seed=5)
        resumed = small_filter.run(
            hist,
            current_second=12,
            seed=6,
            resume=(full.particles, full.end_second),
        )
        assert resumed.end_second == 12
        assert len(resumed.particles) == len(full.particles)

    def test_resume_in_future_is_ignored(self, small_filter, rng):
        hist = history(("d2", [0, 1]))
        early = small_filter.run(hist, current_second=20, seed=12345)
        # Resume state is at second 20, but we ask for second 5: rerun.
        result = small_filter.run(
            hist, current_second=5, seed=12345, resume=(early.particles, early.end_second)
        )
        assert result.end_second == 5

    def test_depletion_recovery_reseeds_at_observed_reader(
        self, small_filter, small_compiled, small_readers, rng
    ):
        # d1 and d3 are 14 m apart: after 1 s the cloud from d1 cannot
        # reach d3, so a d3 reading at t=1 depletes every particle and the
        # filter must reseed within d3's range.
        hist = history(("d1", [0]), ("d3", [1]))
        result = small_filter.run(hist, current_second=1, seed=12345)
        xs, ys = small_compiled.points(result.particles.edge, result.particles.offset)
        center = small_readers["d3"].position
        for x, y in zip(xs, ys):
            assert center.distance_to(Point(x, y)) <= 2.0 + 0.2

    def test_particle_count_honors_config(self, small_compiled, small_readers, rng):
        config = DEFAULT_CONFIG.with_overrides(num_particles=17)
        pf = ParticleFilter(small_compiled, small_readers, config)
        result = pf.run(history(("d2", [0])), current_second=3, seed=12345)
        assert len(result.particles) == 17

    def test_weights_remain_normalized(self, small_filter, rng):
        hist = history(("d2", [0, 1, 2]), ("d3", [7, 8]))
        result = small_filter.run(hist, current_second=9, seed=12345)
        assert result.particles.weight.sum() == pytest.approx(1.0)

    def test_deterministic_given_rng(self, small_filter):
        hist = history(("d2", [0, 1]), ("d3", [7]))
        a = small_filter.run(hist, 10, seed=3)
        b = small_filter.run(hist, 10, seed=3)
        assert np.array_equal(a.particles.offset, b.particles.offset)
        assert np.array_equal(a.particles.edge, b.particles.edge)
