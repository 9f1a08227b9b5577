"""Tests for the future-work extensions: continuous queries, closest
pairs, threshold kNN results, and the negative-information filter."""

import numpy as np
import pytest

from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.core import CompiledGraph, ParticleFilter
from repro.geometry import Point, Rect
from repro.index import AnchorObjectTable
from repro.queries import (
    ContinuousQueryMonitor,
    KNNResult,
    evaluate_closest_pairs,
)
from repro.rfid import RFIDReader
from repro.sim import Simulation

FAST = DEFAULT_CONFIG.with_overrides(
    num_objects=12, duration_seconds=40, warmup_seconds=20
)


class TestContinuousMonitor:
    @pytest.fixture(scope="class")
    def simulation(self):
        sim = Simulation(FAST)
        sim.run_until(30)
        return sim

    def test_first_tick_reports_entries(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.pf_engine)
        monitor.add_range_query("whole", simulation.plan.bounds)
        deltas = monitor.tick(30)
        assert len(deltas) == 1
        assert deltas[0].query_id == "whole"
        assert deltas[0].entered  # everyone enters a building-wide window
        assert not deltas[0].left
        simulation.pf_engine.clear_queries()

    def test_stable_result_produces_empty_delta(self, simulation):
        monitor = ContinuousQueryMonitor(
            simulation.pf_engine, report_threshold=0.0, min_change=2.0
        )
        monitor.add_range_query("whole", simulation.plan.bounds)
        monitor.tick(30)
        second = monitor.tick(30)
        assert second[0].is_empty or not second[0].entered
        simulation.pf_engine.clear_queries()

    def test_objects_leave_as_world_moves(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.pf_engine)
        monitor.add_range_query("strip", Rect(4, 4, 20, 6))
        first = monitor.tick(30)
        simulation.run_until(55)
        later = monitor.tick(55)
        # Over 25 s the population of a narrow hallway strip changes.
        assert first[0].entered != later[0].entered or later[0].left
        simulation.pf_engine.clear_queries()

    def test_knn_monitoring(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.pf_engine)
        monitor.add_knn_query("k", Point(30, 5), 2)
        deltas = monitor.tick(simulation.now)
        assert deltas[0].entered
        simulation.pf_engine.clear_queries()

    def test_works_with_symbolic_engine(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.sm_engine)
        monitor.add_range_query("whole", simulation.plan.bounds)
        deltas = monitor.tick(simulation.now)
        assert deltas[0].entered
        simulation.sm_engine.clear_queries()

    def test_rejects_time_reversal(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.pf_engine)
        monitor.add_range_query("whole", simulation.plan.bounds)
        monitor.tick(simulation.now)
        with pytest.raises(ValueError):
            monitor.tick(simulation.now - 10)
        simulation.pf_engine.clear_queries()

    def test_parameter_validation(self, simulation):
        with pytest.raises(ValueError):
            ContinuousQueryMonitor(simulation.pf_engine, report_threshold=1.0)
        with pytest.raises(ValueError):
            ContinuousQueryMonitor(simulation.pf_engine, min_change=-0.1)

    def test_current_result(self, simulation):
        monitor = ContinuousQueryMonitor(simulation.pf_engine)
        monitor.add_range_query("whole", simulation.plan.bounds)
        monitor.tick(simulation.now)
        assert monitor.current_result("whole")
        assert monitor.current_result("ghost") == {}
        simulation.pf_engine.clear_queries()


class TestClosestPairs:
    def _table(self, anchors, placements):
        return AnchorObjectTable.from_distributions(
            (object_id, {anchors.nearest(point).ap_id: 1.0})
            for object_id, point in placements.items()
        )

    def test_finds_adjacent_pair(self, small_graph, small_anchors):
        table = self._table(
            small_anchors,
            {"a": Point(2, 5), "b": Point(3, 5), "c": Point(18, 5)},
        )
        pairs = evaluate_closest_pairs(small_graph, small_anchors, table, m=1)
        assert len(pairs) == 1
        assert {pairs[0].object_a, pairs[0].object_b} == {"a", "b"}
        assert pairs[0].expected_distance == pytest.approx(1.0, abs=0.2)

    def test_m_pairs_ordered(self, small_graph, small_anchors):
        table = self._table(
            small_anchors,
            {"a": Point(2, 5), "b": Point(3, 5), "c": Point(10, 5), "d": Point(12, 5)},
        )
        pairs = evaluate_closest_pairs(small_graph, small_anchors, table, m=2)
        assert len(pairs) == 2
        assert pairs[0].expected_distance <= pairs[1].expected_distance
        assert {pairs[0].object_a, pairs[0].object_b} == {"a", "b"}
        assert {pairs[1].object_a, pairs[1].object_b} == {"c", "d"}

    def test_expected_distance_of_spread_distributions(self, small_graph, small_anchors):
        left = small_anchors.nearest(Point(4, 5))
        right = small_anchors.nearest(Point(6, 5))
        table = AnchorObjectTable.from_distributions(
            [
                ("a", {left.ap_id: 0.5, right.ap_id: 0.5}),
                ("b", {left.ap_id: 0.5, right.ap_id: 0.5}),
            ]
        )
        pairs = evaluate_closest_pairs(small_graph, small_anchors, table, m=1)
        # E[d] = 0.5*0 + 0.5*2 = 1.0 (two anchors 2 m apart).
        assert pairs[0].expected_distance == pytest.approx(1.0, abs=0.05)

    def test_fewer_than_two_objects(self, small_graph, small_anchors):
        table = self._table(small_anchors, {"a": Point(2, 5)})
        assert evaluate_closest_pairs(small_graph, small_anchors, table) == []

    def test_rejects_bad_parameters(self, small_graph, small_anchors):
        table = self._table(small_anchors, {"a": Point(2, 5), "b": Point(3, 5)})
        with pytest.raises(ValueError):
            evaluate_closest_pairs(small_graph, small_anchors, table, m=0)
        with pytest.raises(ValueError):
            evaluate_closest_pairs(small_graph, small_anchors, table, top_anchors=0)

    def test_matches_bruteforce(self, small_graph, small_anchors):
        rng = np.random.default_rng(4)
        anchors = small_anchors.anchors
        pairs = []
        for i in range(6):
            picks = rng.integers(0, len(anchors), size=3)
            masses = rng.random(3)
            masses /= masses.sum()
            pairs.append(
                (f"o{i}", {int(anchors[p].ap_id): float(w) for p, w in zip(picks, masses)})
            )
        table = AnchorObjectTable.from_distributions(pairs)
        pairs = evaluate_closest_pairs(small_graph, small_anchors, table, m=1)

        def expected(a, b):
            total = 0.0
            for ap_a, p_a in table.distribution_of(a).items():
                for ap_b, p_b in table.distribution_of(b).items():
                    total += p_a * p_b * small_graph.distance(
                        small_anchors.anchor(ap_a).location,
                        small_anchors.anchor(ap_b).location,
                    )
            return total

        objects = sorted(table.objects())
        brute = min(
            (expected(a, b), a, b)
            for i, a in enumerate(objects)
            for b in objects[i + 1:]
        )
        assert {pairs[0].object_a, pairs[0].object_b} == {brute[1], brute[2]}
        assert pairs[0].expected_distance == pytest.approx(brute[0], rel=1e-6)


class TestThresholdKnn:
    def test_above_threshold(self):
        result = KNNResult("q", {"a": 0.9, "b": 0.4, "c": 0.05})
        assert result.above_threshold(0.5) == ["a"]
        assert result.above_threshold(0.3) == ["a", "b"]
        assert result.above_threshold(0.0) == ["a", "b", "c"]

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            KNNResult("q", {}).above_threshold(1.5)


class TestNegativeInformation:
    def test_silence_pushes_mass_out_of_covered_space(self, small_graph):
        readers = {
            "d1": RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
            "d2": RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
            "d3": RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
        }
        compiled = CompiledGraph(small_graph)
        history = ReadingHistory("o1", (DeviceRun("d2", [0, 1]),))

        def covered_mass(config, seed):
            pf = ParticleFilter(compiled, readers, config)
            result = pf.run(history, current_second=20, seed=seed)
            mask = pf.sensing.in_any_range_mask(result.particles)
            return result.particles.weight[mask].sum()

        base = DEFAULT_CONFIG
        negative = DEFAULT_CONFIG.with_overrides(use_negative_information=True)
        base_mass = np.mean([covered_mass(base, s) for s in range(5)])
        negative_mass = np.mean([covered_mass(negative, s) for s in range(5)])
        # With 19 silent seconds of evidence, covered-space mass must shrink.
        assert negative_mass < base_mass

    def test_negative_likelihood_validated(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_overrides(negative_likelihood=0.0)
