"""Tests for ground truth evaluation and accuracy metrics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Rect
from repro.sim import (
    kl_divergence,
    knn_hit_rate,
    range_query_kl,
    top_k_success,
    true_knn_result,
    true_range_result,
)
from repro.sim.ground_truth import true_nearest_distances
from repro.sim.metrics import mean_of


class TestGroundTruthRange:
    def test_inside_outside(self):
        positions = {"a": Point(1, 1), "b": Point(5, 5)}
        assert true_range_result(Rect(0, 0, 2, 2), positions) == {"a"}

    def test_boundary_counts(self):
        assert true_range_result(Rect(0, 0, 2, 2), {"a": Point(2, 2)}) == {"a"}

    def test_empty(self):
        assert true_range_result(Rect(0, 0, 1, 1), {}) == set()


class TestGroundTruthKnn:
    def test_orders_by_network_distance(self, small_graph):
        locations = {
            "near": small_graph.locate(Point(11, 5))[0],
            "far": small_graph.locate(Point(19, 5))[0],
            "room": small_graph.locate(Point(5, 2))[0],
        }
        result = true_knn_result(Point(10, 5), locations, small_graph, 2)
        assert result[0] == "near"
        assert len(result) == 2

    def test_k_larger_than_population(self, small_graph):
        locations = {"only": small_graph.locate(Point(11, 5))[0]}
        assert true_knn_result(Point(10, 5), locations, small_graph, 5) == ["only"]

    def test_rejects_bad_k(self, small_graph):
        with pytest.raises(ValueError):
            true_knn_result(Point(10, 5), {}, small_graph, 0)

    def test_tie_break_by_id(self, small_graph):
        loc = small_graph.locate(Point(12, 5))[0]
        result = true_knn_result(Point(10, 5), {"b": loc, "a": loc}, small_graph, 1)
        assert result == ["a"]

    def test_nearest_distances(self, small_graph):
        locations = {"a": small_graph.locate(Point(12, 5))[0]}
        distances = true_nearest_distances(Point(10, 5), locations, small_graph)
        assert distances["a"] == pytest.approx(2.0)


class TestKlDivergence:
    def test_identical_distributions(self):
        p = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_known_value(self):
        p = {"a": 1.0}
        q = {"a": 0.5, "b": 0.5}
        assert kl_divergence(p, q) == pytest.approx(math.log(2))

    def test_rejects_empty_p(self):
        with pytest.raises(ValueError):
            kl_divergence({}, {"a": 1.0})

    def test_normalizes_inputs(self):
        p = {"a": 2.0, "b": 2.0}
        q = {"a": 5.0, "b": 5.0}
        assert kl_divergence(p, q) == pytest.approx(0.0)

    @given(
        st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
        )
    )
    def test_non_negative(self, dist):
        q = {k: 1.0 for k in "abcd"}
        assert kl_divergence(dist, q) >= -1e-9


class TestRangeQueryKl:
    def test_perfect_result_scores_zero_ish(self):
        truth = {"a"}
        result = {"a": 1.0}
        kl = range_query_kl(truth, result, ["a", "b", "c"], epsilon=0.01)
        assert kl == pytest.approx(len("bc") * math.log(1 / 0.99) + math.log(1 / 0.99), abs=0.05)
        assert kl < 0.05

    def test_total_miss_is_costly(self):
        kl_miss = range_query_kl({"a"}, {}, ["a", "b"], epsilon=0.01)
        kl_good = range_query_kl({"a"}, {"a": 0.9}, ["a", "b"], epsilon=0.01)
        assert kl_miss > kl_good
        assert kl_miss == pytest.approx(math.log(100) + math.log(1 / 0.99), abs=0.05)

    def test_diluted_true_probability_penalized(self):
        # The symbolic model's failure mode: the same total mass spread
        # thinly means the true object's own probability is low.
        sharp = range_query_kl({"a"}, {"a": 0.9}, ["a", "b", "c"], epsilon=0.01)
        diluted = range_query_kl({"a"}, {"a": 0.2}, ["a", "b", "c"], epsilon=0.01)
        assert diluted > sharp

    def test_monotone_in_true_probability(self):
        values = [
            range_query_kl({"a"}, {"a": q}, ["a"], epsilon=0.01)
            for q in (0.05, 0.2, 0.5, 0.9, 1.0)
        ]
        assert values == sorted(values, reverse=True)
        assert values[-1] == pytest.approx(0.0)

    def test_empty_truth_returns_none(self):
        assert range_query_kl(set(), {"a": 1.0}, ["a"]) is None

    def test_value_does_not_depend_on_iteration_order(self):
        # These three terms sum to different doubles forwards and
        # backwards; a set of ids iterates in string-hash order, which
        # changes from process to process.
        result = {"a": 0.9, "b": 0.3, "c": 0.11}
        forwards = range_query_kl(["a", "b", "c"], result, [], epsilon=0.01)
        backwards = range_query_kl(["c", "b", "a"], result, [], epsilon=0.01)
        assert forwards == backwards

    def test_normalized_by_truth_size(self):
        one = range_query_kl({"a"}, {"a": 0.5}, ["a"], epsilon=0.01)
        two = range_query_kl(
            {"a", "b"}, {"a": 0.5, "b": 0.5}, ["a", "b"], epsilon=0.01
        )
        assert one == pytest.approx(two, rel=0.01)


class TestHitRate:
    def test_full_hit(self):
        assert knn_hit_rate(["a", "b", "c"], ["a", "b", "c"]) == 1.0

    def test_partial(self):
        assert knn_hit_rate(["a", "x", "y"], ["a", "b"]) == 0.5

    def test_superset_counts(self):
        assert knn_hit_rate(["a", "b", "c", "d"], ["a", "b"]) == 1.0

    def test_rejects_empty_truth(self):
        with pytest.raises(ValueError):
            knn_hit_rate(["a"], [])


class TestTopKSuccess:
    def test_success_at_top1(self, paper_anchors):
        anchor = paper_anchors.anchors[50]
        dist = {anchor.ap_id: 0.8, paper_anchors.anchors[0].ap_id: 0.2}
        assert top_k_success(dist, anchor.point, paper_anchors, 1)

    def test_failure_when_far(self, paper_anchors):
        anchor = paper_anchors.anchors[50]
        dist = {anchor.ap_id: 1.0}
        far = anchor.point.translated(20, 0)
        assert not top_k_success(dist, far, paper_anchors, 1, tolerance=2.0)

    def test_top2_catches_second_mode(self, paper_anchors):
        first = paper_anchors.anchors[10]
        second = paper_anchors.anchors[120]
        dist = {first.ap_id: 0.6, second.ap_id: 0.4}
        assert not top_k_success(dist, second.point, paper_anchors, 1)
        assert top_k_success(dist, second.point, paper_anchors, 2)

    def test_empty_distribution(self, paper_anchors):
        assert not top_k_success({}, Point(0, 0), paper_anchors, 1)

    def test_rejects_bad_k(self, paper_anchors):
        with pytest.raises(ValueError):
            top_k_success({1: 1.0}, Point(0, 0), paper_anchors, 0)

    def test_tolerance_parameter(self, paper_anchors):
        anchor = paper_anchors.anchors[50]
        dist = {anchor.ap_id: 1.0}
        near = anchor.point.translated(2.5, 0)
        assert not top_k_success(dist, near, paper_anchors, 1, tolerance=2.0)
        assert top_k_success(dist, near, paper_anchors, 1, tolerance=3.0)


class TestMeanOf:
    def test_skips_none(self):
        assert mean_of([1.0, None, 3.0]) == 2.0

    def test_all_none(self):
        assert mean_of([None, None]) is None
        assert mean_of([]) is None
