"""System-level property tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.core import CompiledAnchors, CompiledGraph, ParticleFilter
from repro.core.discretize import particles_to_anchor_distribution
from repro.geometry import Point, Rect
from repro.index import AnchorObjectTable
from repro.queries import RangeQuery, evaluate_range_query
from repro.rfid import RFIDReader


@pytest.fixture(scope="module")
def world(small_graph, small_anchors):
    compiled = CompiledGraph(small_graph)
    compiled_anchors = CompiledAnchors(small_anchors, compiled)
    readers = {
        "d1": RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
        "d2": RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
        "d3": RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
    }
    pf = ParticleFilter(compiled, readers, DEFAULT_CONFIG.with_overrides(num_particles=32))
    return compiled, compiled_anchors, readers, pf


class TestFilterInvariants:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_particles_stay_on_graph_and_distribution_normalizes(self, world, data):
        compiled, compiled_anchors, readers, pf = world
        devices = data.draw(
            st.lists(st.sampled_from(["d1", "d2", "d3"]), min_size=1, max_size=2,
                     unique=True),
        )
        runs = []
        second = 0
        for device in devices:
            length = data.draw(st.integers(min_value=1, max_value=3))
            runs.append(DeviceRun(device, list(range(second, second + length))))
            second += length + data.draw(st.integers(min_value=1, max_value=8))
        history = ReadingHistory("o1", tuple(runs))
        horizon = data.draw(st.integers(min_value=0, max_value=30))
        seed = data.draw(st.integers(min_value=0, max_value=2**20))

        result = pf.run(
            history,
            current_second=history.last_second + horizon,
            seed=seed,
        )
        particles = result.particles
        lengths = compiled.edge_length[particles.edge]
        assert (particles.offset >= -1e-9).all()
        assert (particles.offset <= lengths + 1e-9).all()
        assert particles.weight.sum() == pytest.approx(1.0)

        (distribution,) = particles_to_anchor_distribution([particles], compiled_anchors)
        assert sum(distribution.values()) == pytest.approx(1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20),
           horizon=st.integers(min_value=0, max_value=40))
    def test_posterior_within_reachability(self, world, seed, horizon):
        """No particle can be farther from the last device than max walk."""
        compiled, compiled_anchors, readers, pf = world
        history = ReadingHistory("o1", (DeviceRun("d2", [0, 1]),))
        result = pf.run(
            history, current_second=1 + horizon, seed=seed
        )
        elapsed = result.end_second - 1
        x, y = compiled.points(result.particles.edge, result.particles.offset)
        center = readers["d2"].position
        # Max speed of particles ~ N(1, 0.1) floored; allow generous bound.
        bound = 2.0 + (elapsed + 1) * 1.6
        distances = np.hypot(x - center.x, y - center.y)
        assert (distances <= bound).all()


class TestRangeQueryProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(min_value=-2, max_value=22),
        y=st.floats(min_value=-2, max_value=12),
        w=st.floats(min_value=0.5, max_value=20),
        h=st.floats(min_value=0.5, max_value=10),
        ax=st.floats(min_value=0, max_value=20),
    )
    def test_probability_bounds(self, small_plan, small_anchors, x, y, w, h, ax):
        anchor = small_anchors.nearest(Point(ax, 5.0))
        table = AnchorObjectTable.from_distributions([("o1", {anchor.ap_id: 1.0})])
        query = RangeQuery("q", Rect(x, y, x + w, y + h))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        p = result.probabilities.get("o1", 0.0)
        assert -1e-9 <= p <= 1.0 + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.floats(min_value=0, max_value=14),
        w=st.floats(min_value=1, max_value=6),
        grow=st.floats(min_value=0.1, max_value=5),
        ax=st.floats(min_value=0, max_value=20),
    )
    def test_monotone_in_window(self, small_plan, small_anchors, x, w, grow, ax):
        """A larger window can only gain probability (same center line)."""
        anchor = small_anchors.nearest(Point(ax, 5.0))
        table = AnchorObjectTable.from_distributions([("o1", {anchor.ap_id: 1.0})])
        small = Rect(x, 0.0, x + w, 10.0)
        large = Rect(max(x - grow, 0.0), 0.0, x + w + grow, 10.0)
        p_small = evaluate_range_query(
            RangeQuery("s", small), small_plan, small_anchors, table
        ).probabilities.get("o1", 0.0)
        p_large = evaluate_range_query(
            RangeQuery("l", large), small_plan, small_anchors, table
        ).probabilities.get("o1", 0.0)
        assert p_large >= p_small - 1e-6

    def test_building_wide_window_captures_everything(self, small_plan, small_anchors):
        spread = {
            ap.ap_id: 1.0 / len(small_anchors)
            for ap in small_anchors.anchors
        }
        table = AnchorObjectTable.from_distributions([("o1", spread)])
        whole = small_plan.bounds.expanded(1.0)
        p = evaluate_range_query(
            RangeQuery("q", whole), small_plan, small_anchors, table
        ).probabilities["o1"]
        assert p == pytest.approx(1.0, abs=0.01)
