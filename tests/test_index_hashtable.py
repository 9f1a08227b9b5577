"""Tests for the APtoObjHT anchor-object table."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.index import AnchorObjectTable


def make_table():
    return AnchorObjectTable.from_distributions(
        [
            ("o1", {1: 0.14, 2: 0.5, 3: 0.36}),
            ("o3", {1: 0.03, 7: 0.97}),
            ("o7", {1: 0.37, 9: 0.63}),
        ]
    )


class TestWrites:
    def test_set_and_read(self):
        table = make_table()
        assert table.at(1) == {"o1": 0.14, "o3": 0.03, "o7": 0.37}
        assert table.distribution_of("o1") == {1: 0.14, 2: 0.5, 3: 0.36}

    def test_zero_mass_dropped(self):
        table = AnchorObjectTable.from_distributions(
            [("o1", {1: 0.0, 2: -0.5, 3: 1.0})]
        )
        assert table.distribution_of("o1") == {3: 1.0}

    def test_empty_distribution_removes(self):
        table = AnchorObjectTable.from_distributions([("o1", {}), ("o2", {4: 1.0})])
        assert not table.has_object("o1")
        assert table.objects() == ["o2"]


class TestReads:
    def test_objects_and_anchors(self):
        table = make_table()
        assert sorted(table.objects()) == ["o1", "o3", "o7"]
        assert set(table.anchors()) == {1, 2, 3, 7, 9}

    def test_total_probability(self):
        table = make_table()
        assert table.total_probability("o1") == pytest.approx(1.0)
        assert table.total_probability("missing") == 0.0

    def test_probability_at(self):
        table = make_table()
        assert table.probability_at("o1", 2) == 0.5
        assert table.probability_at("o1", 99) == 0.0
        assert table.probability_at("missing", 2) == 0.0

    def test_sum_over_anchors(self):
        table = make_table()
        assert table.sum_over_anchors("o1", [1, 2]) == pytest.approx(0.64)
        assert table.sum_over_anchors("o1", []) == 0.0

    def test_items_at(self):
        table = make_table()
        assert dict(table.items_at(1)) == {"o1": 0.14, "o3": 0.03, "o7": 0.37}
        assert table.items_at(12345) == []

    def test_at_returns_copy(self):
        table = make_table()
        view = table.at(1)
        view["o1"] = 999.0
        assert table.at(1)["o1"] == 0.14

    def test_len(self):
        assert len(make_table()) == 3


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.001, max_value=1.0),
        min_size=1,
        max_size=10,
    )
)
def test_roundtrip_property(distribution):
    table = AnchorObjectTable.from_distributions([("obj", distribution)])
    assert table.distribution_of("obj") == distribution
    assert table.total_probability("obj") == pytest.approx(sum(distribution.values()))
    for ap_id, mass in distribution.items():
        assert table.at(ap_id)["obj"] == mass


def _both_maps(table):
    # Without sort_keys: the dumps differ when either map's order does.
    # Anchor ids become string keys, so they are spelled out as pairs.
    return json.dumps([
        [[ap_id, table.at(ap_id)] for ap_id in table.anchors()],
        [[object_id, list(table.distribution_of(object_id).items())]
         for object_id in table.objects()],
    ])


class TestFromDistributions:
    """Each construction rule, pinned against explicitly written maps."""

    def test_zero_masses_and_empty_distributions_are_dropped(self):
        table = AnchorObjectTable.from_distributions(
            [("o2", {4: 0.0, 3: 1.0}), ("o1", {}), ("o0", {1: 0.0}), ("o3", {3: 0.5})]
        )
        assert _both_maps(table) == json.dumps([
            [[3, {"o2": 1.0, "o3": 0.5}]],
            [["o2", [[3, 1.0]]], ["o3", [[3, 0.5]]]],
        ])

    def test_both_maps_take_ascending_object_order(self):
        # Whatever order the pairs come in (a gateway merges partition by
        # partition), objects and every anchor bucket are in ascending
        # object id; anchors in order of first appearance in that walk.
        pairs = [
            ("o9", {5: 0.25, 2: 0.75}),
            ("o1", {2: 0.5, 8: -0.125, 7: 0.5}),
            ("o4", {7: 1.0}),
        ]
        table = AnchorObjectTable.from_distributions(pairs)
        assert _both_maps(table) == json.dumps([
            [
                [2, {"o1": 0.5, "o9": 0.75}],
                [7, {"o1": 0.5, "o4": 1.0}],
                [5, {"o9": 0.25}],
            ],
            [
                ["o1", [[2, 0.5], [7, 0.5]]],
                ["o4", [[7, 1.0]]],
                ["o9", [[5, 0.25], [2, 0.75]]],
            ],
        ])
        for order in ([2, 0, 1], [1, 2, 0], [0, 2, 1]):
            shuffled = AnchorObjectTable.from_distributions([pairs[i] for i in order])
            assert _both_maps(shuffled) == _both_maps(table)

    def test_owns_its_distributions(self):
        distribution = {1: 0.25, 2: 0.75}
        table = AnchorObjectTable.from_distributions([("o1", distribution)])
        distribution[1] = 9.0
        assert table.distribution_of("o1") == {1: 0.25, 2: 0.75}

    def test_repeated_object_is_refused(self):
        with pytest.raises(ValueError, match="o1"):
            AnchorObjectTable.from_distributions([("o1", {1: 1.0}), ("o1", {2: 1.0})])
