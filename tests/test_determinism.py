"""Reproducibility: identical seeds must give identical worlds and answers."""

from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.sim import Simulation

FAST = DEFAULT_CONFIG.with_overrides(
    num_objects=10, duration_seconds=40, warmup_seconds=20, seed=99
)


def build_and_run():
    sim = Simulation(FAST)
    sim.run_until(40)
    return sim


class TestWorldDeterminism:
    def test_traces_identical(self):
        a = build_and_run()
        b = build_and_run()
        assert a.true_locations() == b.true_locations()

    def test_collector_state_identical(self):
        a = build_and_run()
        b = build_and_run()
        for object_id in a.pf_engine.collector.observed_objects():
            ha = a.pf_engine.collector.history(object_id)
            hb = b.pf_engine.collector.history(object_id)
            assert [(r.reader_id, r.seconds) for r in ha.runs] == [
                (r.reader_id, r.seconds) for r in hb.runs
            ]

    def test_query_answers_identical(self):
        a = build_and_run()
        b = build_and_run()
        window = Rect(10, 3, 25, 8)
        result_a = a.pf_engine.range_query(window, 40)
        result_b = b.pf_engine.range_query(window, 40)
        assert result_a.probabilities == result_b.probabilities

    def test_knn_answers_identical(self):
        a = build_and_run()
        b = build_and_run()
        ka = a.pf_engine.knn_query(Point(30, 5), 3, 40)
        kb = b.pf_engine.knn_query(Point(30, 5), 3, 40)
        assert ka.probabilities == kb.probabilities

    def test_different_seeds_differ(self):
        a = Simulation(FAST)
        b = Simulation(FAST.with_overrides(seed=100))
        a.run_until(40)
        b.run_until(40)
        assert a.true_locations() != b.true_locations()

    def test_query_placement_streams_independent_of_trace(self):
        # Drawing query windows must not perturb the world evolution.
        a = build_and_run()
        b = build_and_run()
        a.random_windows(5)
        a.run_until(45)
        b.run_until(45)
        assert a.true_locations() == b.true_locations()


class TestSymbolicDeterminism:
    def test_symbolic_identical(self):
        a = build_and_run()
        b = build_and_run()
        window = Rect(10, 3, 25, 8)
        assert (
            a.sm_engine.range_query(window, 40).probabilities
            == b.sm_engine.range_query(window, 40).probabilities
        )


class TestObservabilityDeterminism:
    """Recording metrics/spans must never perturb simulation results."""

    def test_tracing_does_not_change_answers(self):
        from repro import obs

        def answers():
            sim = build_and_run()
            window = Rect(10, 3, 25, 8)
            range_probs = sim.pf_engine.range_query(window, 40).probabilities
            knn_probs = sim.pf_engine.knn_query(Point(30, 5), 3, 40).probabilities
            return range_probs, knn_probs, sim.true_locations()

        baseline = answers()
        obs.enable()
        try:
            traced = answers()
        finally:
            obs.disable()
            obs.reset()
        assert traced == baseline
