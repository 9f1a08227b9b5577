"""Tests for the symbolic model: cells, device types, inference."""

import pytest

from repro.collector.collector import DeviceRun, ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.geometry import Point
from repro.rfid import RFIDReader
from repro.symbolic import (
    DeviceType,
    SymbolicLocationModel,
    build_deployment_graph,
)
from repro.symbolic.cells import anchor_cells


@pytest.fixture(scope="module")
def small_readers():
    return [
        RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
        RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
        RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
    ]


@pytest.fixture(scope="module")
def small_deployment(small_graph, small_readers):
    return build_deployment_graph(small_graph, small_readers)


@pytest.fixture(scope="module")
def small_model(small_graph, small_anchors, small_readers):
    return SymbolicLocationModel(
        small_graph, small_anchors, small_readers, DEFAULT_CONFIG
    )


def history(*runs):
    return ReadingHistory(
        "o1", tuple(DeviceRun(reader, list(seconds)) for reader, seconds in runs)
    )


class TestCells:
    def test_cell_count_small_plan(self, small_deployment):
        # Hallway 0..20 with readers at 3, 10, 17 (range 2) leaves free
        # stretches [0,1], [5,8]+R1 spur part.., [12,15], [19,20] — the
        # exact count depends on door spur splits; sanity-check bounds.
        assert 4 <= len(small_deployment.cells) <= 8

    def test_cells_partition_free_space(self, small_deployment, small_graph):
        # Every anchor is either covered by a reader or in exactly one cell.
        for edge in small_graph.edges:
            for offset in (0.0, edge.length / 2, edge.length):
                covering = small_deployment.covering_readers(edge.edge_id, offset)
                cell = small_deployment.cell_of(edge.edge_id, offset)
                assert (len(covering) > 0) or (cell is not None)

    def test_covered_position_has_no_cell(self, small_deployment, small_graph):
        loc, _ = small_graph.locate(Point(10, 5))  # at reader d2
        assert small_deployment.cell_of(loc.edge_id, loc.offset) is None
        assert "d2" in small_deployment.covering_readers(loc.edge_id, loc.offset)

    def test_device_classification_partitioning(self, small_deployment):
        # d2 separates the hallway into left and right cells.
        assert small_deployment.device_type("d2") is DeviceType.UNDIRECTED_PARTITIONING
        assert len(small_deployment.cells_adjacent_to("d2")) >= 2

    def test_paper_deployment_all_partitioning(self, paper_graph, paper_readers):
        deployment = build_deployment_graph(paper_graph, paper_readers)
        for reader in paper_readers:
            assert deployment.device_type(reader.reader_id) is (
                DeviceType.UNDIRECTED_PARTITIONING
            )

    def test_presence_device(self, small_graph):
        # A reader whose range is buried inside R1 touches one cell only.
        inside = RFIDReader("p1", Point(5.0, 2.0), 0.5)
        deployment = build_deployment_graph(small_graph, [inside])
        assert deployment.device_type("p1") is DeviceType.PRESENCE

    def test_directed_pair_classification(self, small_graph, small_readers):
        deployment = build_deployment_graph(
            small_graph, small_readers, directed_pairs={"d1": "d2", "d2": "d1"}
        )
        assert deployment.device_type("d1") is DeviceType.DIRECTED_PARTITIONING
        assert deployment.directed_partner("d1") == "d2"

    def test_anchor_cells_mapping(self, small_deployment, small_anchors):
        mapping = anchor_cells(small_deployment, small_anchors)
        assert set(mapping.keys()) == {a.ap_id for a in small_anchors}
        covered = [ap for ap, cell in mapping.items() if cell is None]
        assert covered, "some anchors must be reader-covered"


class TestInference:
    def test_no_history(self, small_model):
        assert small_model.infer(ReadingHistory("o1", tuple()), 5) is None

    def test_currently_detected_uniform_over_range(self, small_model, small_anchors):
        dist = small_model.infer(history(("d2", [0, 1, 2])), now=2)
        assert sum(dist.values()) == pytest.approx(1.0)
        for ap_id, mass in dist.items():
            anchor = small_anchors.anchor(ap_id)
            assert anchor.point.distance_to(Point(10, 5)) <= 2.0 + 1e-6
            assert mass == pytest.approx(1.0 / len(dist))

    def test_after_leaving_spreads_to_adjacent_cells(self, small_model, small_anchors):
        dist = small_model.infer(history(("d2", [0])), now=6)
        assert sum(dist.values()) == pytest.approx(1.0)
        xs = [small_anchors.anchor(ap).point.x for ap in dist]
        # Mass on both sides of d2 (direction-blind).
        assert min(xs) < 10 < max(xs)

    def test_speed_constraint_limits_reach(self, small_model, small_anchors):
        dist = small_model.infer(history(("d2", [0])), now=2)
        reach = DEFAULT_CONFIG.max_speed * 2 + 2.0
        for ap_id in dist:
            anchor = small_anchors.anchor(ap_id)
            assert anchor.point.distance_to(Point(10, 5)) <= reach + 1.0

    def test_does_not_cross_other_readers(self, small_model, small_anchors):
        # Long silence: reachable region still stops at d1 and d3 coverage.
        dist = small_model.infer(history(("d2", [0])), now=60)
        for ap_id in dist:
            anchor = small_anchors.anchor(ap_id)
            # d1 at x=3, d3 at x=17: beyond their far side is unreachable
            # without being detected.
            assert 1.0 <= anchor.point.x <= 19.0

    def test_mass_in_rooms_within_cell(self, small_model, small_anchors):
        dist = small_model.infer(history(("d2", [0])), now=20)
        room_mass = sum(
            mass for ap_id, mass in dist.items()
            if small_anchors.anchor(ap_id).room_id is not None
        )
        assert room_mass > 0.0
