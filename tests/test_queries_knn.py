"""Tests for indoor kNN query evaluation (paper Algorithm 4)."""

import pytest

from repro.geometry import Point
from repro.index import AnchorObjectTable
from repro.queries import KNNQuery, evaluate_knn_query


def place(anchor_index, placements):
    return AnchorObjectTable.from_distributions(
        (object_id, {anchor_index.nearest(point).ap_id: mass})
        for object_id, (point, mass) in placements.items()
    )


class TestExpansion:
    def test_returns_nearest_objects_first(self, small_graph, small_anchors):
        table = place(
            small_anchors,
            {
                "near": (Point(11, 5), 1.0),
                "mid": (Point(15, 5), 1.0),
                "far": (Point(2, 5), 1.0),
            },
        )
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=1), small_graph, small_anchors, table
        )
        assert "near" in result.probabilities
        assert result.total_probability >= 1.0
        assert "far" not in result.probabilities

    def test_total_probability_reaches_k(self, small_graph, small_anchors):
        table = place(
            small_anchors,
            {f"o{i}": (Point(2 + 2 * i, 5), 1.0) for i in range(8)},
        )
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=3), small_graph, small_anchors, table
        )
        assert result.total_probability >= 3.0
        assert len(result.objects()) >= 3

    def test_returns_all_when_total_mass_below_k(self, small_graph, small_anchors):
        table = place(small_anchors, {"o1": (Point(3, 5), 1.0)})
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=5), small_graph, small_anchors, table
        )
        assert result.objects() == ["o1"]
        assert result.total_probability == pytest.approx(1.0)

    def test_split_mass_accumulates(self, small_graph, small_anchors):
        a = small_anchors.nearest(Point(9, 5))
        b = small_anchors.nearest(Point(11, 5))
        table = AnchorObjectTable.from_distributions(
            [("o1", {a.ap_id: 0.6, b.ap_id: 0.4})]
        )
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=1), small_graph, small_anchors, table
        )
        assert result.probabilities["o1"] == pytest.approx(1.0)

    def test_network_distance_not_euclidean(self, small_graph, small_anchors):
        # Object in room R1 (center (5,2)): its network distance from a
        # hallway point at x=5 goes through the door spur. An object
        # further along the hallway but network-closer must win.
        table = place(
            small_anchors,
            {
                "room_obj": (Point(5, 2), 1.0),   # spur length ~3.16+
                "hall_obj": (Point(7, 5), 1.0),   # 2 m along hallway
            },
        )
        result = evaluate_knn_query(
            KNNQuery("q", Point(5, 5), k=1), small_graph, small_anchors, table
        )
        ranked = result.ranked()
        assert ranked[0][0] == "hall_obj"

    def test_expansion_matches_bruteforce_order(self, paper_graph, paper_anchors):
        # Probabilities spread over many anchors: the returned set must be
        # exactly the objects whose nearest anchors are within the search
        # radius implied by the accumulated mass.
        points = [Point(10, 5), Point(20, 5), Point(30, 5), Point(40, 5), Point(20, 27)]
        table = AnchorObjectTable.from_distributions(
            (f"o{i}", {paper_anchors.nearest(p).ap_id: 1.0})
            for i, p in enumerate(points)
        )
        q_point = Point(12, 5)
        result = evaluate_knn_query(
            KNNQuery("q", q_point, k=2), paper_graph, paper_anchors, table
        )
        q_loc, _ = paper_graph.locate(q_point)
        brute = sorted(
            (paper_graph.distance(q_loc, paper_anchors.nearest(p).location), f"o{i}")
            for i, p in enumerate(points)
        )
        expected = {name for _, name in brute[:2]}
        assert set(result.objects()) == expected

    def test_query_on_room_spur(self, small_graph, small_anchors):
        table = place(small_anchors, {"o1": (Point(5, 2), 1.0)})
        result = evaluate_knn_query(
            KNNQuery("q", Point(5, 2.5), k=1), small_graph, small_anchors, table
        )
        assert result.probabilities["o1"] == pytest.approx(1.0)

    def test_empty_table(self, small_graph, small_anchors):
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=3), small_graph, small_anchors,
            AnchorObjectTable(),
        )
        assert result.probabilities == {}
        assert result.total_probability == 0.0


class TestResultApi:
    def test_ranked_and_top(self, small_graph, small_anchors):
        table = place(
            small_anchors,
            {
                "a": (Point(9, 5), 0.9),
                "b": (Point(11, 5), 0.5),
                "c": (Point(12, 5), 0.7),
            },
        )
        result = evaluate_knn_query(
            KNNQuery("q", Point(10, 5), k=3), small_graph, small_anchors, table
        )
        ranked = result.ranked()
        probs = [p for _, p in ranked]
        assert probs == sorted(probs, reverse=True)
        assert result.top(1) == [ranked[0][0]]
