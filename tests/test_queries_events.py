"""Tests for the probabilistic event-predicate layer."""

import pytest

from repro.geometry import Point, Rect
from repro.index import AnchorObjectTable
from repro.queries.events import (
    And,
    EventContext,
    InRoom,
    InZone,
    Near,
    Not,
    Or,
    Together,
)


@pytest.fixture
def context(small_plan, small_graph, small_anchors):
    distributions = {}

    def place(object_id, point, mass=1.0):
        anchor = small_anchors.nearest(point)
        dist = distributions.setdefault(object_id, {})
        dist[anchor.ap_id] = dist.get(anchor.ap_id, 0.0) + mass

    place("joe", Point(10, 5))            # hallway, x=10
    place("mary", Point(11, 5))           # hallway, next to joe
    place("sam", small_plan.room("R1").center)   # in room R1
    place("split", Point(2, 5), 0.5)
    place("split", Point(18, 5), 0.5)
    table = AnchorObjectTable.from_distributions(distributions.items())
    return EventContext(small_plan, small_graph, small_anchors, table)


class TestAtoms:
    def test_in_zone(self, context):
        assert InZone("joe", Rect(8, 4, 12, 6)).probability(context) == pytest.approx(1.0)
        assert InZone("joe", Rect(0, 4, 5, 6)).probability(context) == pytest.approx(0.0)

    def test_in_zone_split_mass(self, context):
        p = InZone("split", Rect(0, 4, 5, 6)).probability(context)
        assert p == pytest.approx(0.5, abs=0.05)

    def test_in_room(self, context):
        assert InRoom("sam", "R1").probability(context) == pytest.approx(1.0, abs=0.01)
        assert InRoom("sam", "R2").probability(context) == pytest.approx(0.0, abs=0.01)

    def test_in_zone_unknown_object(self, context):
        assert InZone("ghost", Rect(0, 0, 20, 10)).probability(context) == 0.0

    def test_near_adjacent(self, context):
        assert Near("joe", "mary", 2.0).probability(context) == pytest.approx(1.0)

    def test_near_too_far(self, context):
        assert Near("joe", "sam", 1.0).probability(context) == pytest.approx(0.0)

    def test_near_split(self, context):
        # split is 50/50 at x=2 and x=18; joe at x=10 is 8 m from each.
        assert Near("joe", "split", 8.5).probability(context) == pytest.approx(1.0)
        assert Near("joe", "split", 7.0).probability(context) == pytest.approx(0.0)

    def test_near_rejects_negative(self, context):
        with pytest.raises(ValueError):
            Near("joe", "mary", -1.0).probability(context)

    def test_near_uses_network_distance(self, context):
        # sam is at R1's center (5,2): Euclidean to joe (10,5) ~5.8 m but
        # the walking path goes through the door (longer).
        euclid = Point(10, 5).distance_to(Point(5, 2))
        assert Near("joe", "sam", euclid).probability(context) == pytest.approx(0.0)
        assert Near("joe", "sam", 12.0).probability(context) == pytest.approx(1.0)

    def test_together(self, context):
        hallway_mid = Rect(8, 4, 12, 6)
        assert Together("joe", "mary", hallway_mid).probability(context) == (
            pytest.approx(1.0)
        )
        assert Together("joe", "sam", hallway_mid).probability(context) == (
            pytest.approx(0.0)
        )


class TestCombinators:
    def test_and(self, context):
        event = And((
            InZone("joe", Rect(8, 4, 12, 6)),
            InZone("split", Rect(0, 4, 5, 6)),
        ))
        assert event.probability(context) == pytest.approx(0.5, abs=0.05)

    def test_or(self, context):
        event = Or((
            InZone("split", Rect(0, 4, 5, 6)),
            InZone("split", Rect(15, 4, 20, 6)),
        ))
        assert event.probability(context) == pytest.approx(0.75, abs=0.05)

    def test_not(self, context):
        event = Not(InZone("joe", Rect(8, 4, 12, 6)))
        assert event.probability(context) == pytest.approx(0.0, abs=1e-6)

    def test_operator_sugar(self, context):
        meeting = InZone("joe", Rect(8, 4, 12, 6)) & Near("joe", "mary", 2.0)
        assert meeting.probability(context) == pytest.approx(1.0)
        either = InRoom("sam", "R1") | InRoom("sam", "R2")
        assert either.probability(context) == pytest.approx(1.0, abs=0.01)
        absent = ~InRoom("sam", "R1")
        assert absent.probability(context) == pytest.approx(0.0, abs=0.01)

    def test_is_joe_meeting_mary_in_room(self, context, small_plan):
        """The literature's canonical event query, end to end."""
        room = small_plan.room("R3").boundary
        meeting = (
            InZone("joe", room)
            & InZone("mary", room)
            & Near("joe", "mary", 3.0)
        )
        # Both are in the hallway, not R3.
        assert meeting.probability(context) == pytest.approx(0.0, abs=0.01)
