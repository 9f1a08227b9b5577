"""Version-2 checkpoints written by an older build still restore.

``tests/fixtures/checkpoints`` holds two files written by the last
version-2 build (see the README there for the exact commands):

* ``service-v2.json`` — ``repro serve`` over the ``simulate --objects 10
  --seconds 20 --seed 3`` world, checkpointed after 10 of 20 seconds,
  with one standing range and one standing kNN query;
* ``gateway-v2.json`` — ``repro gateway`` with two ``small``-plan demo
  tenants of 5 objects, checkpointed after 6 seconds, with analytics
  and one range and one kNN session per tenant.

Version 3 dropped the collector's ENTER/LEAVE event log and the
gateway's ``shed_subticks`` counter. Loading migrates both away, and the
resumed runs must equal uninterrupted runs of this build exactly.
"""

import json
import os

import pytest

from repro.cli import main
from repro.config import DEFAULT_CONFIG
from repro.gateway import (
    GatewayCoordinator,
    TenantWorld,
    demo_tenants,
    load_checkpoint as load_gateway_checkpoint,
    restore_coordinator,
    save_checkpoint as save_gateway_checkpoint,
)
from repro.geometry import Point, Rect
from repro.io import load_deployment, load_floorplan
from repro.service import LiveSimSource, ReplaySource, TrackingService
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    restore_from_file,
    save_checkpoint,
)
from repro.sim import Simulation

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoints")
SERVICE_V2 = os.path.join(FIXTURES, "service-v2.json")
GATEWAY_V2 = os.path.join(FIXTURES, "gateway-v2.json")

SERVICE_CUT = 10
GATEWAY_CUT = 6
GATEWAY_SECONDS = 10


def _raw(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _delta_key(delta):
    return (delta.query_id, delta.second, delta.entered, delta.left, delta.updated)


def _table(table):
    return {obj: table.distribution_of(obj) for obj in sorted(table.objects())}


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The replay, plan and deployment the service fixture was served on."""
    directory = tmp_path_factory.mktemp("world")
    paths = {name: str(directory / name) for name in ("run.csv", "plan.json", "readers.json")}
    assert main([
        "simulate", "--objects", "10", "--seconds", "20", "--seed", "3",
        "--readings", paths["run.csv"],
        "--plan", paths["plan.json"],
        "--deployment", paths["readers.json"],
    ]) == 0
    return {
        "replay": paths["run.csv"],
        "plan": load_floorplan(paths["plan.json"]),
        "readers": load_deployment(paths["readers.json"]),
    }


def _serve(service, world, start_after=None):
    deltas = []
    for batch in ReplaySource.from_file(world["replay"], start_after=start_after):
        deltas.extend(_delta_key(d) for d in service.process_batch(batch))
    return deltas


@pytest.fixture(scope="module")
def uninterrupted(world):
    """``repro serve --range 4,0,30,12 --knn 30,5,3`` over all 20 seconds."""
    service = TrackingService(
        DEFAULT_CONFIG, plan=world["plan"], readers=world["readers"]
    )
    with service:
        service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="range-0")
        service.sessions.subscribe_knn(Point(30, 5), 3, session_id="knn-0")
        deltas = _serve(service, world)
        return {
            "deltas": deltas,
            "table": _table(service.snapshot().table),
            "state": service.state_dict(),
        }


class TestServiceFixture:
    def test_fixture_is_a_version_2_file_with_an_event_log(self):
        document = _raw(SERVICE_V2)
        assert document["checkpoint_version"] == 2
        assert document["state"]["collector"]["events"]

    def test_load_drops_the_event_log(self):
        state = load_checkpoint(SERVICE_V2)
        assert "events" not in state["collector"]
        assert state["ticks"] == SERVICE_CUT

    def test_resume_equals_an_uninterrupted_run(self, world, uninterrupted):
        service = restore_from_file(
            SERVICE_V2, plan=world["plan"], readers=world["readers"]
        )
        with service:
            deltas = _serve(service, world, start_after=service.last_second)
            assert deltas == [
                d for d in uninterrupted["deltas"] if d[1] > SERVICE_CUT
            ]
            assert deltas  # the tail is not vacuous
            assert _table(service.snapshot().table) == uninterrupted["table"]
            assert service.state_dict() == uninterrupted["state"]

    def test_resave_is_version_3(self, world, tmp_path):
        service = restore_from_file(
            SERVICE_V2, plan=world["plan"], readers=world["readers"]
        )
        path = tmp_path / "state.json"
        with service:
            save_checkpoint(service, path)
        document = _raw(path)
        assert document["checkpoint_version"] == CHECKPOINT_VERSION == 3
        assert "events" not in document["state"]["collector"]


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------
def _specs():
    """``repro gateway --demo-tenants 2 --plan small --objects 5``."""
    return demo_tenants(2, base_seed=101, num_objects=5, plan="small")


@pytest.fixture(scope="module")
def tenant_batches():
    out = {}
    for spec in _specs():
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        out[spec.tenant_id] = list(LiveSimSource(sim, GATEWAY_SECONDS).batches())
    return out


def _run(coordinator, tenant_batches, start, stop):
    deltas = {tid: [] for tid in tenant_batches}
    for step in range(start, stop):
        for tid in tenant_batches:
            coordinator.submit_tick(tid, tenant_batches[tid][step])
        for _ in tenant_batches:
            tid, _second, tick_deltas = coordinator.collect_tick()
            deltas[tid].extend(_delta_key(d) for d in tick_deltas)
    return deltas


def _observables(coordinator, deltas):
    out = {}
    for tid in sorted(coordinator.tenant_ids()):
        out[tid] = {
            "table": _table(coordinator.latest_snapshot(tid).table),
            "deltas": deltas[tid],
            "analytics": coordinator.analytics_summary(tid),
            "sessions": {
                session["session_id"]: coordinator.session_result(
                    tid, session["session_id"]
                )
                for session in coordinator.sessions_info(tid)
            },
        }
    return out


@pytest.fixture(scope="module")
def gateway_cold(tenant_batches):
    """The same CLI run (``--range 0,0,20,20 --knn 5,5,2 --analytics``),
    never interrupted."""
    coordinator = GatewayCoordinator(_specs(), num_partitions=2, transport="inline")
    with coordinator:
        coordinator.enable_analytics()
        for spec in _specs():
            coordinator.subscribe_range(spec.tenant_id, Rect(0, 0, 20, 20))
            coordinator.subscribe_knn(spec.tenant_id, Point(5, 5), 2)
        deltas = _run(coordinator, tenant_batches, 0, GATEWAY_SECONDS)
        return _observables(coordinator, deltas)


class TestGatewayFixture:
    def test_fixture_is_a_version_2_file(self):
        document = _raw(GATEWAY_V2)
        assert document["checkpoint_version"] == 2
        state = document["state"]
        for record in state["serving"].values():
            assert record["shed_subticks"] == 0
        for service in state["services"].values():
            assert service["collector"]["events"]

    def test_load_drops_retired_fields(self):
        state = load_gateway_checkpoint(GATEWAY_V2)
        for tid, record in state["serving"].items():
            assert sorted(record) == ["last_second", "partial_ticks", "ticks"]
            assert "events" not in state["services"][tid]["collector"]

    @pytest.mark.parametrize("partitions", [2, 3])
    def test_resume_equals_an_uninterrupted_run(
        self, tenant_batches, gateway_cold, partitions, tmp_path
    ):
        coordinator = restore_coordinator(
            GATEWAY_V2, num_partitions=partitions, transport="inline"
        )
        with coordinator:
            assert coordinator.num_partitions == partitions
            deltas = _run(coordinator, tenant_batches, GATEWAY_CUT, GATEWAY_SECONDS)
            resumed = _observables(coordinator, deltas)
            path = tmp_path / "gateway-ck.json"
            save_gateway_checkpoint(coordinator, str(path))
        expected = {
            tid: dict(
                record,
                deltas=[d for d in record["deltas"] if d[1] > GATEWAY_CUT],
            )
            for tid, record in gateway_cold.items()
        }
        assert resumed == expected
        assert any(record["deltas"] for record in resumed.values())
        document = _raw(path)
        assert document["checkpoint_version"] == 3
        for tid, record in document["state"]["serving"].items():
            assert "shed_subticks" not in record
            assert "events" not in document["state"]["services"][tid]["collector"]
