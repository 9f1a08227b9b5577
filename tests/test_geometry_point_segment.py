"""Unit and property tests for points, segments, and polylines."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Point, Polyline, Segment
from repro.graph import GraphLocation
from repro.rfid import RawReading

coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_to_self_is_zero(self):
        p = Point(3.0, 4.0)
        assert p.distance_to(p) == 0.0

    def test_distance_345(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_squared_distance(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25.0

    def test_manhattan_distance(self):
        assert Point(1, 1).manhattan_distance_to(Point(4, 5)) == 7.0

    def test_translated(self):
        assert Point(1, 2).translated(3, -1) == Point(4, 1)

    def test_lerp_endpoints(self):
        a, b = Point(0, 0), Point(10, 20)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(4, 6)) == Point(2, 3)

    def test_as_tuple_and_iter(self):
        p = Point(1.5, 2.5)
        assert p.as_tuple() == (1.5, 2.5)
        assert tuple(p) == (1.5, 2.5)

    def test_is_close(self):
        assert Point(1, 1).is_close(Point(1 + 1e-12, 1))
        assert not Point(1, 1).is_close(Point(1.1, 1))

    def test_hashable(self):
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6

    @given(points, points)
    def test_euclidean_lower_bounds_manhattan(self, a, b):
        assert a.distance_to(b) <= a.manhattan_distance_to(b) + 1e-9


class TestSegment:
    def test_length(self):
        assert Segment(Point(0, 0), Point(3, 4)).length == 5.0

    def test_degenerate(self):
        assert Segment(Point(1, 1), Point(1, 1)).is_degenerate

    def test_orientation_flags(self):
        assert Segment(Point(0, 1), Point(5, 1)).is_horizontal
        assert Segment(Point(2, 0), Point(2, 5)).is_vertical
        diagonal = Segment(Point(0, 0), Point(1, 1))
        assert not diagonal.is_horizontal
        assert not diagonal.is_vertical

    def test_point_at_clamps(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        assert seg.point_at(-5) == Point(0, 0)
        assert seg.point_at(25) == Point(10, 0)
        assert seg.point_at(4) == Point(4, 0)

    def test_project_interior(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        offset, dist = seg.project(Point(3, 4))
        assert offset == pytest.approx(3.0)
        assert dist == pytest.approx(4.0)

    def test_project_beyond_end_clamps(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        offset, dist = seg.project(Point(15, 0))
        assert offset == pytest.approx(10.0)
        assert dist == pytest.approx(5.0)

    def test_closest_point(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        assert seg.closest_point(Point(7, 3)) == Point(7, 0)

    def test_reversed(self):
        seg = Segment(Point(0, 0), Point(1, 2))
        assert seg.reversed() == Segment(Point(1, 2), Point(0, 0))

    def test_sample_spacing(self):
        seg = Segment(Point(0, 0), Point(10, 0))
        pts = list(seg.sample(2.5))
        assert pts[0] == Point(0, 0)
        assert pts[-1] == Point(10, 0)
        assert len(pts) == 5

    def test_sample_includes_far_endpoint(self):
        seg = Segment(Point(0, 0), Point(1, 0))
        pts = list(seg.sample(0.4))
        assert pts[-1] == Point(1, 0)

    def test_sample_rejects_bad_spacing(self):
        with pytest.raises(ValueError):
            list(Segment(Point(0, 0), Point(1, 0)).sample(0.0))

    @given(points, points, points)
    def test_projection_distance_is_minimal(self, a, b, p):
        seg = Segment(a, b)
        offset, dist = seg.project(p)
        # The reported distance can never beat the distance to any sampled
        # point of the segment.
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            candidate = a.lerp(b, t)
            assert dist <= p.distance_to(candidate) + 1e-6

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_project_recovers_interior_points(self, a, b, t):
        seg = Segment(a, b)
        target = a.lerp(b, t)
        _, dist = seg.project(target)
        assert dist == pytest.approx(0.0, abs=1e-6)


class TestPolyline:
    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Polyline(tuple())
        with pytest.raises(ValueError):
            Polyline((Point(0, 0),))

    def test_from_points_dedupes(self):
        line = Polyline.from_points([Point(0, 0), Point(0, 0), Point(1, 0)])
        assert len(line.points) == 2

    def test_length_two_legs(self):
        line = Polyline.from_points([Point(0, 0), Point(3, 0), Point(3, 4)])
        assert line.length == pytest.approx(7.0)

    def test_point_at_crosses_legs(self):
        line = Polyline.from_points([Point(0, 0), Point(3, 0), Point(3, 4)])
        assert line.point_at(0) == Point(0, 0)
        assert line.point_at(3) == Point(3, 0)
        assert line.point_at(5).is_close(Point(3, 2))
        assert line.point_at(100) == Point(3, 4)

    def test_project_picks_best_leg(self):
        line = Polyline.from_points([Point(0, 0), Point(10, 0), Point(10, 10)])
        offset, dist = line.project(Point(9.5, 6))
        assert offset == pytest.approx(16.0)
        assert dist == pytest.approx(0.5)

    def test_reversed(self):
        line = Polyline.from_points([Point(0, 0), Point(1, 0), Point(1, 1)])
        rev = line.reversed()
        assert rev.start == Point(1, 1)
        assert rev.end == Point(0, 0)
        assert rev.length == pytest.approx(line.length)

    @given(st.lists(points, min_size=2, max_size=6))
    def test_point_at_endpoints(self, pts):
        line = Polyline.from_points(pts)
        assert line.point_at(0.0).is_close(line.start, tol=1e-6)
        assert line.point_at(line.length).is_close(line.end, tol=1e-6)

    @given(st.lists(points, min_size=2, max_size=6), st.floats(0, 1))
    def test_projection_roundtrip(self, pts, t):
        line = Polyline.from_points(pts)
        target = line.point_at(t * line.length)
        _, dist = line.project(target)
        assert dist == pytest.approx(0.0, abs=1e-6)


class TestSlottedValueTypes:
    """The high-volume frozen value types carry slots and still round-trip."""

    VALUES = [
        Point(1.5, -2.25),
        RawReading(3.5, "tag-7", "reader-2"),
        GraphLocation(4, 0.75),
    ]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, dataclasses.fields(value)[0].name, 0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_pickle_round_trip(self, value, protocol):
        restored = pickle.loads(pickle.dumps(value, protocol=protocol))
        assert restored == value
        assert hash(restored) == hash(value)
        assert type(restored) is type(value)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_deepcopy_round_trip(self, value):
        clone = copy.deepcopy(value)
        assert clone == value
        assert hash(clone) == hash(value)
