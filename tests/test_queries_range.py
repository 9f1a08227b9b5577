"""Tests for indoor range query evaluation (paper Algorithm 3)."""

import pytest

from repro.geometry import Point, Rect
from repro.index import AnchorObjectTable
from repro.queries import RangeQuery, evaluate_range_query


def table_with(anchor_index, placements):
    """Build a table placing each object fully at the anchor nearest a point."""
    return AnchorObjectTable.from_distributions(
        (object_id, {anchor_index.nearest(point).ap_id: 1.0})
        for object_id, point in placements.items()
    )


class TestHallwayPart:
    def test_full_width_window_captures_object(self, small_plan, small_anchors):
        table = table_with(small_anchors, {"o1": Point(10, 5)})
        query = RangeQuery("q", Rect(8, 4, 12, 6))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(1.0)

    def test_half_width_window_halves_probability(self, small_plan, small_anchors):
        table = table_with(small_anchors, {"o1": Point(10, 5)})
        query = RangeQuery("q", Rect(8, 5, 12, 6))  # covers top half of band
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(0.5)

    def test_window_outside_span_misses(self, small_plan, small_anchors):
        table = table_with(small_anchors, {"o1": Point(10, 5)})
        query = RangeQuery("q", Rect(0, 4, 5, 6))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities.get("o1", 0.0) == pytest.approx(0.0)

    def test_boundary_anchor_counts_fractionally(self, small_plan, small_anchors):
        # Window edge exactly through the anchor: half its stretch covered.
        table = table_with(small_anchors, {"o1": Point(10, 5)})
        query = RangeQuery("q", Rect(10, 4, 14, 6))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(0.5, abs=0.01)

    def test_mass_split_across_anchors(self, small_plan, small_anchors):
        a = small_anchors.nearest(Point(9, 5))
        b = small_anchors.nearest(Point(11, 5))
        table = AnchorObjectTable.from_distributions(
            [("o1", {a.ap_id: 0.5, b.ap_id: 0.5})]
        )
        query = RangeQuery("q", Rect(8.4, 4, 9.6, 6))  # covers only anchor a
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(0.5, abs=0.05)


class TestRoomPart:
    def test_full_room_window(self, small_plan, small_anchors):
        center = small_plan.room("R1").center
        table = table_with(small_anchors, {"o1": center})
        query = RangeQuery("q", Rect(0, 0, 10, 4))  # exactly R1
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(1.0, abs=0.01)

    def test_quarter_room_window(self, small_plan, small_anchors):
        center = small_plan.room("R1").center
        table = table_with(small_anchors, {"o1": center})
        query = RangeQuery("q", Rect(0, 0, 5, 2))  # quarter of R1's area
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(0.25, abs=0.01)

    def test_window_in_other_room_misses(self, small_plan, small_anchors):
        center = small_plan.room("R1").center
        table = table_with(small_anchors, {"o1": center})
        query = RangeQuery("q", Rect(12, 0, 18, 4))  # inside R2
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities.get("o1", 0.0) == pytest.approx(0.0)


class TestCombined:
    def test_window_spanning_hallway_and_room(self, small_plan, small_anchors):
        hall_anchor = small_anchors.nearest(Point(5, 5))
        room_anchor = small_anchors.nearest(small_plan.room("R3").center)
        table = AnchorObjectTable.from_distributions(
            [("o1", {hall_anchor.ap_id: 0.5, room_anchor.ap_id: 0.5})]
        )
        # Covers the hallway band fully (width-wise) around x=5 and all of R3.
        query = RangeQuery("q", Rect(0, 4, 10, 10))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(1.0, abs=0.05)

    def test_multiple_objects(self, small_plan, small_anchors):
        table = table_with(
            small_anchors, {"o1": Point(10, 5), "o2": Point(2, 5), "o3": Point(18, 5)}
        )
        query = RangeQuery("q", Rect(8, 4, 12, 6))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        assert result.probabilities["o1"] == pytest.approx(1.0)
        assert result.probabilities.get("o2", 0.0) == 0.0
        assert result.probabilities.get("o3", 0.0) == 0.0

    def test_probability_never_exceeds_one(self, paper_plan, paper_anchors):
        # An object spread widely; a window covering the whole building.
        anchors = paper_anchors.anchors[:40]
        table = AnchorObjectTable.from_distributions(
            [("o1", {a.ap_id: 1.0 / 40 for a in anchors})]
        )
        query = RangeQuery("q", paper_plan.bounds)
        result = evaluate_range_query(query, paper_plan, paper_anchors, table)
        assert result.probabilities["o1"] <= 1.0 + 1e-9

    def test_empty_table(self, small_plan, small_anchors):
        result = evaluate_range_query(
            RangeQuery("q", Rect(0, 0, 20, 10)), small_plan, small_anchors,
            AnchorObjectTable(),
        )
        assert result.probabilities == {}

    def test_result_top_ordering(self, small_plan, small_anchors):
        a = small_anchors.nearest(Point(10, 5))
        table = AnchorObjectTable.from_distributions(
            [("o1", {a.ap_id: 0.9}), ("o2", {a.ap_id: 0.4})]
        )
        query = RangeQuery("q", Rect(8, 4, 12, 6))
        result = evaluate_range_query(query, small_plan, small_anchors, table)
        top = result.top(2)
        assert top[0][0] == "o1"
        assert top[1][0] == "o2"
