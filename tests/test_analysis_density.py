"""Tests for localization analysis and zone density queries."""

import pytest

from repro.geometry import Point, Rect
from repro.index import AnchorObjectTable
from repro.queries.density import (
    busiest_zone,
    room_densities,
    total_expected_objects,
    zone_densities,
)
from repro.sim.analysis import (
    ErrorSummary,
    by_staleness_bucket,
    compare_methods,
    localization_samples,
)


def table_at(anchors, placements):
    return AnchorObjectTable.from_distributions(
        (object_id, {anchors.nearest(point).ap_id: 1.0})
        for object_id, point in placements.items()
    )


class TestLocalizationSamples:
    def test_perfect_localization(self, small_anchors):
        truth = {"o1": Point(10, 5)}
        table = table_at(small_anchors, truth)
        samples = localization_samples(
            table, small_anchors, truth, {"o1": 0}, second=10
        )
        assert len(samples) == 1
        sample = samples[0]
        assert sample.mode_error == pytest.approx(0.0, abs=0.5)
        assert sample.expected_error == pytest.approx(0.0, abs=0.5)
        assert sample.mass_within_3m == pytest.approx(1.0)
        assert sample.staleness == 0

    def test_split_distribution(self, small_anchors):
        near = small_anchors.nearest(Point(10, 5))
        far = small_anchors.nearest(Point(2, 5))
        table = AnchorObjectTable.from_distributions(
            [("o1", {near.ap_id: 0.5, far.ap_id: 0.5})]
        )
        samples = localization_samples(
            table, small_anchors, {"o1": Point(10, 5)}, {"o1": 4}, second=9
        )
        sample = samples[0]
        assert sample.mass_within_3m == pytest.approx(0.5)
        assert sample.expected_error == pytest.approx(0.5 * 8.0, abs=0.6)

    def test_unknown_truth_skipped(self, small_anchors):
        table = table_at(small_anchors, {"o1": Point(10, 5)})
        assert localization_samples(table, small_anchors, {}, {}, 0) == []

    def test_bucketing(self, small_anchors):
        truth = {"a": Point(10, 5), "b": Point(10, 5)}
        table = table_at(small_anchors, truth)
        samples = localization_samples(
            table, small_anchors, truth, {"a": 0, "b": 10}, second=10
        )
        buckets = by_staleness_bucket(samples)
        assert buckets["0-0s"].count == 1
        assert buckets["6-15s"].count == 1
        assert buckets["1-5s"] is None

    def test_compare_methods(self, small_anchors):
        truth = {"a": Point(10, 5)}
        table = table_at(small_anchors, truth)
        samples = localization_samples(table, small_anchors, truth, {"a": 0}, 0)
        rows = compare_methods(samples, samples)
        assert set(rows) == {"particle_filter", "symbolic"}
        assert rows["particle_filter"]["count"] == 1

    def test_summary_of_empty(self):
        assert ErrorSummary.of([]) is None


class TestZoneDensity:
    def test_room_densities(self, small_plan, small_anchors):
        r1_center = small_plan.room("R1").center
        table = table_at(
            small_anchors, {"a": r1_center, "b": r1_center, "c": Point(18, 5)}
        )
        densities = {z.zone_id: z.expected_count for z in room_densities(
            small_plan, small_anchors, table
        )}
        assert densities["R1"] == pytest.approx(2.0, abs=0.1)
        assert densities["R2"] == pytest.approx(0.0, abs=0.05)

    def test_sorted_densest_first(self, small_plan, small_anchors):
        table = table_at(
            small_anchors,
            {"a": small_plan.room("R3").center, "b": small_plan.room("R3").center},
        )
        ranked = room_densities(small_plan, small_anchors, table)
        assert ranked[0].zone_id == "R3"
        assert ranked[0].expected_count >= ranked[-1].expected_count

    def test_custom_zones_and_busiest(self, small_plan, small_anchors):
        table = table_at(small_anchors, {"a": Point(5, 5), "b": Point(15, 5)})
        zones = {
            "west": Rect(0, 4, 10, 6),
            "east": Rect(10, 4, 20, 6),
        }
        ranked = zone_densities(zones, small_plan, small_anchors, table)
        assert {z.zone_id for z in ranked} == {"west", "east"}
        top = busiest_zone(zones, small_plan, small_anchors, table)
        assert top.expected_count >= 0.9

    def test_busiest_of_empty(self, small_plan, small_anchors):
        assert busiest_zone({}, small_plan, small_anchors, AnchorObjectTable()) is None

    def test_top_objects_listed(self, small_plan, small_anchors):
        table = table_at(small_anchors, {"a": Point(5, 5)})
        zones = {"west": Rect(0, 4, 10, 6)}
        (zone,) = zone_densities(zones, small_plan, small_anchors, table)
        assert zone.top_objects[0][0] == "a"

    def test_total_expected(self):
        assert total_expected_objects({"a": 1.5, "b": 0.5}) == 2.0
