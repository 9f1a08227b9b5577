"""Tests for the additional floor plan presets and their graphs."""

import pytest

from repro.floorplan import cross_office_plan, linear_office_plan
from repro.graph import NodeKind, build_anchor_index, build_walking_graph
from repro.rfid import deploy_readers_uniform


class TestLinearPlan:
    def test_default_structure(self):
        plan = linear_office_plan()
        assert len(plan.hallways) == 1
        assert len(plan.rooms) == 10

    def test_parameterized(self):
        plan = linear_office_plan(num_rooms_per_side=3, room_width=8.0)
        assert len(plan.rooms) == 6
        assert plan.hallways[0].length == pytest.approx(24.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            linear_office_plan(num_rooms_per_side=0)

    def test_graph_buildable(self):
        graph = build_walking_graph(linear_office_plan())
        assert len(graph.room_ids()) == 10
        anchors = build_anchor_index(graph)
        assert len(anchors) > 30

    def test_deployable(self):
        plan = linear_office_plan()
        readers = deploy_readers_uniform(plan, 4, 2.0)
        assert len(readers) == 4


class TestCrossPlan:
    def test_default_structure(self):
        plan = cross_office_plan()
        assert len(plan.hallways) == 2
        assert len(plan.rooms) == 12

    def test_has_four_way_intersection(self):
        graph = build_walking_graph(cross_office_plan())
        degrees = [
            graph.degree(n.node_id)
            for n in graph.nodes
            if n.kind is NodeKind.HALLWAY
        ]
        assert max(degrees) >= 4

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            cross_office_plan(arm_length=2.0)
        with pytest.raises(ValueError):
            cross_office_plan(rooms_per_arm=0)

    def test_graph_connected_and_anchored(self):
        graph = build_walking_graph(cross_office_plan())
        anchors = build_anchor_index(graph)
        # Spot-check network distance across the intersection.
        a = graph.room_node("R1")
        b = graph.room_node("R12")
        assert 0 < graph.node_distance(a, b) < 200
        assert len(anchors) > 50

    def test_simulation_runs_on_cross_plan(self):
        from repro.config import DEFAULT_CONFIG
        from repro.rfid import deploy_readers_uniform
        from repro.sim import Simulation

        plan = cross_office_plan()
        config = DEFAULT_CONFIG.with_overrides(num_objects=5, num_readers=6)
        readers = deploy_readers_uniform(plan, 6, 2.0)
        sim = Simulation(config, plan=plan, readers=readers)
        sim.run_for(30)
        table = sim.pf_engine.locations_snapshot(sim.now)
        assert len(table.objects()) >= 1
