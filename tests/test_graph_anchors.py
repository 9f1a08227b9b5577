"""Tests for anchor point generation and the anchor index."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Circle, Point, Rect
from repro.graph import build_anchor_index


def along(anchors, edge):
    """``(offset, ap_id)`` of every anchor on ``edge``, its end nodes' included.

    Read from the anchors' own locations, ascending by offset.
    """
    ordered = [
        (ap.location.offset, ap.ap_id)
        for ap in anchors
        if ap.node_id is None and ap.location.edge_id == edge.edge_id
    ]
    for node_id in (edge.node_a, edge.node_b):
        ordered.append((edge.offset_of(node_id), anchors.node_anchor(node_id).ap_id))
    return sorted(ordered)


class TestGeneration:
    def test_spacing_rejected_when_non_positive(self, paper_graph):
        with pytest.raises(ValueError):
            build_anchor_index(paper_graph, spacing=0.0)

    def test_every_node_has_anchor(self, paper_anchors, paper_graph):
        for node in paper_graph.nodes:
            anchor = paper_anchors.node_anchor(node.node_id)
            assert anchor.point.is_close(node.point, tol=1e-6)

    def test_anchor_count_matches_total_length(self, paper_anchors, paper_graph):
        # Roughly one anchor per meter of edge.
        total = paper_graph.total_edge_length
        assert 0.8 * total <= len(paper_anchors) <= 1.3 * total

    def test_anchor_locations_project_back(self, paper_anchors, paper_graph):
        for anchor in paper_anchors.anchors[:100]:
            assert paper_graph.point_of(anchor.location).is_close(
                anchor.point, tol=1e-6
            )

    def test_interior_anchor_spacing(self, paper_anchors, paper_graph):
        for edge in paper_graph.edges:
            ordered = along(paper_anchors, edge)
            interior = [ap_id for _, ap_id in ordered[1:-1]]
            # Interior anchors are generated edge by edge, in offset order.
            assert interior == sorted(interior)
            for (lo, _), (hi, _) in zip(ordered, ordered[1:]):
                assert hi - lo <= paper_anchors.spacing * 1.5 + 1e-9

    def test_edge_lists_include_endpoints(self, paper_anchors, paper_graph):
        for edge in paper_graph.edges:
            ordered = along(paper_anchors, edge)
            assert ordered[0][0] == 0.0
            assert ordered[-1][0] == pytest.approx(edge.length)
            for offset, ap_id in ordered:
                assert paper_graph.point_of(
                    paper_anchors.anchor(ap_id).location
                ).is_close(edge.point_at(offset), tol=1e-6)

    def test_classification_room_vs_hallway(self, paper_anchors, paper_graph):
        plan = paper_graph.floorplan
        for anchor in paper_anchors.anchors:
            if anchor.room_id is not None:
                # Node anchors of rooms are at room centers.
                assert plan.room(anchor.room_id).boundary.expanded(1e-6).contains(
                    anchor.point
                )
            if anchor.hallway_id is not None:
                assert plan.hallway(anchor.hallway_id).band.expanded(1e-6).contains(
                    anchor.point
                )

    def test_room_anchor_lists(self, paper_anchors, paper_graph):
        for room_id in paper_graph.room_ids():
            anchors = paper_anchors.in_room(room_id)
            assert anchors, f"room {room_id} has no anchors"
            assert any(a.node_id == f"room:{room_id}" for a in anchors)


class TestSpatialQueries:
    def test_nearest_exact(self, paper_anchors):
        anchor = paper_anchors.anchors[10]
        assert paper_anchors.nearest(anchor.point).ap_id == anchor.ap_id

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-5, max_value=65),
        st.floats(min_value=-5, max_value=35),
    )
    def test_nearest_matches_bruteforce(self, paper_anchors, x, y):
        p = Point(x, y)
        fast = paper_anchors.nearest(p)
        best = min(paper_anchors.anchors, key=lambda a: a.point.squared_distance_to(p))
        assert fast.point.distance_to(p) == pytest.approx(
            best.point.distance_to(p), abs=1e-9
        )

    def test_in_rect_matches_bruteforce(self, paper_anchors):
        rect = Rect(10, 3, 25, 8)
        fast = {a.ap_id for a in paper_anchors.in_rect(rect)}
        slow = {
            a.ap_id for a in paper_anchors.anchors if rect.contains(a.point)
        }
        assert fast == slow

    def test_in_circle_matches_bruteforce(self, paper_anchors):
        circle = Circle(Point(20, 5), 3.0)
        fast = {a.ap_id for a in paper_anchors.in_circle(circle)}
        slow = {
            a.ap_id for a in paper_anchors.anchors if circle.contains(a.point)
        }
        assert fast == slow

    def test_huge_regions_scan_only_the_occupied_grid(self, paper_anchors):
        # A million-metre bounding box would be 4e12 grid cells; the scan
        # is clamped to the cells that hold anchors, in the same order.
        every = [a.ap_id for a in paper_anchors.in_rect(Rect(-1e6, -1e6, 1e6, 1e6))]
        assert sorted(every) == list(range(len(paper_anchors)))
        circle = Circle(Point(20, 5), 1e6)
        assert [a.ap_id for a in paper_anchors.in_circle(circle)] == every
        overhang = Rect(-5, -5, 12, 40)
        assert {a.ap_id for a in paper_anchors.in_rect(overhang)} == {
            a.ap_id for a in paper_anchors.anchors if overhang.contains(a.point)
        }

    def test_empty_rect(self, paper_anchors):
        assert paper_anchors.in_rect(Rect(-10, -10, -5, -5)) == []


class TestNeighbors:
    """Consecutive anchors along each edge, and over the network."""

    def test_neighbors_symmetric(self, paper_anchors):
        rows = [
            paper_anchors.network_distances(ap.location) for ap in paper_anchors
        ]
        for a in range(0, len(paper_anchors), 7):
            for b in range(len(paper_anchors)):
                assert rows[a][b] == pytest.approx(rows[b][a], abs=1e-9)

    def test_gaps_positive_and_bounded(self, paper_anchors, paper_graph):
        for edge in paper_graph.edges:
            ordered = along(paper_anchors, edge)
            for (lo, ap_lo), (hi, ap_hi) in zip(ordered, ordered[1:]):
                assert 0 < hi - lo <= paper_anchors.spacing * 1.5 + 1e-9
                distance = paper_anchors.network_distances(
                    paper_anchors.anchor(ap_lo).location
                )[ap_hi]
                assert distance <= hi - lo + 1e-9

    def test_connected(self, paper_anchors, paper_graph):
        for node in paper_graph.nodes:
            distances = paper_anchors.network_distances(
                paper_anchors.node_anchor(node.node_id).location
            )
            assert all(math.isfinite(d) for d in distances.tolist()), node.node_id

    def test_interior_anchor_has_two_neighbors(self, paper_anchors, paper_graph):
        # A mid-edge anchor's two nearest anchors over the network are its
        # predecessor and successor on its edge.
        for edge in paper_graph.hallway_edges():
            ordered = along(paper_anchors, edge)
            for (_, before), (_, mid), (_, after) in zip(
                ordered, ordered[1:], ordered[2:]
            ):
                distances = paper_anchors.network_distances(
                    paper_anchors.anchor(mid).location
                ).tolist()
                ranked = sorted(range(len(distances)), key=distances.__getitem__)
                assert ranked[0] == mid
                assert set(ranked[1:3]) == {before, after}
