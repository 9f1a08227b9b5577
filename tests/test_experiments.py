"""End-to-end tests for the experiment harness (scaled-down sweeps)."""


from repro.config import DEFAULT_CONFIG
from repro.queries import KNNQuery
from repro.sim import Simulation, evaluate_accuracy
from repro.sim.experiments import (
    format_rows,
    query_timestamps,
    run_figure9,
    run_figure10,
)

FAST = DEFAULT_CONFIG.with_overrides(
    num_objects=12,
    duration_seconds=50,
    warmup_seconds=30,
    num_query_timestamps=2,
    num_range_queries=4,
    num_knn_queries=3,
)


class TestTimestamps:
    def test_within_window(self):
        stamps = query_timestamps(FAST)
        assert all(30 <= t <= 80 for t in stamps)
        assert stamps == sorted(stamps)

    def test_count(self):
        assert len(query_timestamps(FAST)) == 2


class TestEvaluateAccuracy:
    def test_full_report(self):
        report = evaluate_accuracy(FAST)
        assert report.range_kl_pf is not None
        assert report.range_kl_sm is not None
        assert report.knn_hit_pf is not None
        assert report.knn_hit_sm is not None
        assert 0.0 <= report.knn_hit_pf <= 1.0
        assert 0.0 <= report.knn_hit_sm <= 1.0
        assert report.top1_success is not None
        assert 0.0 <= report.top1_success <= report.top2_success <= 1.0
        assert report.range_query_count > 0
        assert report.topk_sample_count > 0

    def test_selective_metrics(self):
        report = evaluate_accuracy(FAST, measure_range=False, measure_topk=False)
        assert report.range_kl_pf is None
        assert report.top1_success is None
        assert report.knn_hit_pf is not None

    def test_as_row(self):
        report = evaluate_accuracy(FAST, measure_knn=False, measure_topk=False)
        row = report.as_row(window_ratio=0.02)
        assert row["window_ratio"] == 0.02
        assert isinstance(row["range_kl_pf"], float)
        assert row["knn_hit_pf"] is None

    def test_symbolic_backend_matches_the_baseline_range_kl(self):
        # Both engines then run the symbolic model, so the range columns
        # agree exactly. kNN is left out on purpose: its pf column takes
        # ``.objects()`` and its sm column ``.top(k)``.
        report = evaluate_accuracy(
            FAST, measure_knn=False, measure_topk=False, filter_backend="symbolic"
        )
        assert report.range_kl_pf is not None
        assert report.range_kl_pf == report.range_kl_sm

    def test_symbolic_backend_matches_the_baseline_knn_answers(self):
        # The kNN answers themselves agree exactly, pruning included; only
        # the hit-rate scoring differs (see the range KL test above).
        sim = Simulation(FAST, filter_backend="symbolic")
        points = sim.random_query_points(FAST.num_knn_queries)
        for engine in (sim.pf_engine, sim.sm_engine):
            for i, point in enumerate(points):
                engine.register_knn_query(KNNQuery(f"k{i}", point, FAST.k))
        for now in query_timestamps(FAST):
            sim.run_until(now)
            pf = sim.pf_engine.evaluate(now)
            sm = sim.sm_engine.evaluate(now)
            for i in range(len(points)):
                assert (
                    pf.knn_results[f"k{i}"].probabilities
                    == sm.knn_results[f"k{i}"].probabilities
                )

    def test_reusable_simulation(self):
        sim = Simulation(FAST)
        report = evaluate_accuracy(FAST, simulation=sim, measure_topk=False)
        assert report.range_kl_pf is not None
        assert sim.now >= FAST.warmup_seconds


class TestFigureSweeps:
    def test_figure9_rows(self):
        rows = run_figure9(FAST, window_ratios=(0.02, 0.04))
        assert len(rows) == 2
        assert rows[0]["window_ratio"] == 0.02
        assert rows[0]["range_kl_pf"] is not None
        assert rows[0]["knn_hit_pf"] is None  # kNN not measured for Fig 9

    def test_figure10_rows(self):
        rows = run_figure10(FAST, ks=(2, 3))
        assert len(rows) == 2
        assert rows[0]["k"] == 2
        assert rows[0]["knn_hit_pf"] is not None
        assert rows[0]["range_kl_pf"] is None

    def test_format_rows(self):
        rows = [{"a": 1, "b": None}, {"a": 22, "b": 0.5}]
        text = format_rows(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 4

    def test_format_empty(self):
        assert "(no rows)" in format_rows([], title="X")


class TestPaperShape:
    """The headline comparison: PF must beat SM on this workload."""

    def test_pf_beats_sm(self):
        config = DEFAULT_CONFIG.with_overrides(
            num_objects=25,
            duration_seconds=90,
            warmup_seconds=40,
            num_query_timestamps=3,
            num_range_queries=8,
            num_knn_queries=5,
        )
        report = evaluate_accuracy(config)
        assert report.range_kl_pf < report.range_kl_sm
        assert report.knn_hit_pf > report.knn_hit_sm
