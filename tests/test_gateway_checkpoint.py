"""Coordinated gateway checkpoints: resume ≡ cold run, re-partitioning.

The restore guarantee under test: checkpoint a deployment mid-stream,
restore it — at the same *or a different* partition count — and the
continued run is tick-for-tick identical to one that never stopped:
same snapshots, same standing-query deltas, same analytics summaries.
A checkpoint is one file of per-tenant service states, so a crash
mid-save leaves a complete cut behind, and each tenant's state also
resumes as a single-process :class:`TrackingService`.
"""

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.gateway.checkpoint as gateway_checkpoint
from repro.gateway import (
    GatewayCompatibilityError,
    GatewayCoordinator,
    TenantSpec,
    TenantWorld,
    demo_tenants,
    load_checkpoint,
    merge_tenant_states,
    restore_coordinator,
    save_checkpoint,
)
from repro.geometry import Point, Rect
from repro.service import LiveSimSource, TrackingService, restore_service
from repro.sim import Simulation

TOTAL_SECONDS = 10
CUT_AT = 5  # checkpoint after this many seconds
WINDOW = Rect(0.0, 0.0, 12.0, 12.0)
KNN_POINT = Point(5.0, 5.0)


def _specs():
    return demo_tenants(2, base_seed=23, num_objects=4, plan="small")


@pytest.fixture(scope="module")
def tenant_batches():
    out = {}
    for spec in _specs():
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        out[spec.tenant_id] = list(LiveSimSource(sim, TOTAL_SECONDS).batches())
    return out


def _new_coordinator(num_partitions=2):
    coordinator = GatewayCoordinator(
        _specs(), num_partitions=num_partitions, transport="inline"
    )
    coordinator.enable_analytics()
    for spec in _specs():
        coordinator.subscribe_range(spec.tenant_id, WINDOW, session_id="r0")
        coordinator.subscribe_knn(spec.tenant_id, KNN_POINT, 2, session_id="k0")
    return coordinator


def _delta_key(delta):
    return (delta.query_id, delta.second, delta.entered, delta.left, delta.updated)


def _run(coordinator, tenant_batches, start, stop):
    deltas = {tid: [] for tid in tenant_batches}
    for step in range(start, stop):
        for tid in tenant_batches:
            coordinator.submit_tick(tid, tenant_batches[tid][step])
        for _ in tenant_batches:
            tid, _second, tick_deltas = coordinator.collect_tick()
            deltas[tid].extend(_delta_key(d) for d in tick_deltas)
    return deltas


def _table(table):
    return {obj: table.distribution_of(obj) for obj in sorted(table.objects())}


def _observables(coordinator, deltas):
    """Everything the resume guarantee covers, in comparable form."""
    out = {}
    for tid in sorted(coordinator.tenant_ids()):
        out[tid] = {
            "table": _table(coordinator.latest_snapshot(tid).table),
            "deltas": deltas[tid],
            "analytics": coordinator.analytics_summary(tid),
            "sessions": {
                "r0": coordinator.session_result(tid, "r0"),
                "k0": coordinator.session_result(tid, "k0"),
            },
        }
    return out


def _tail(observables, cut):
    """The cold run as seen by a run resumed after ``cut`` seconds."""
    return {
        tid: dict(record, deltas=[d for d in record["deltas"] if d[1] > cut])
        for tid, record in observables.items()
    }


@pytest.fixture(scope="module")
def cold(tenant_batches):
    """The uninterrupted reference run, with every delta it produced."""
    coordinator = _new_coordinator()
    with coordinator:
        deltas = _run(coordinator, tenant_batches, 0, TOTAL_SECONDS)
        return _observables(coordinator, deltas)


@pytest.fixture(scope="module")
def checkpoint_path(tenant_batches, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("gateway-ck") / "gateway-ck.json")
    coordinator = _new_coordinator()
    with coordinator:
        _run(coordinator, tenant_batches, 0, CUT_AT)
        save_checkpoint(coordinator, path)
    return path


def _resume_tail(path, tenant_batches, start, num_partitions=None):
    coordinator = restore_coordinator(
        path, num_partitions=num_partitions, transport="inline"
    )
    with coordinator:
        tail = _run(coordinator, tenant_batches, start, TOTAL_SECONDS)
        return _observables(coordinator, tail)


class TestResume:
    @pytest.mark.parametrize("num_partitions", [None, 3, 1])
    def test_resumed_run_is_tick_identical_to_cold(
        self, tenant_batches, cold, checkpoint_path, num_partitions
    ):
        """Resume at the same (None), more, or fewer partitions."""
        coordinator = restore_coordinator(
            checkpoint_path,
            num_partitions=num_partitions,
            transport="inline",
        )
        with coordinator:
            expected = 2 if num_partitions is None else num_partitions
            assert coordinator.num_partitions == expected
            # Serving state resumed: ticks, open sessions, analytics.
            health = coordinator.health()
            for record in health["tenants"].values():
                assert record["ticks"] == CUT_AT
                # LiveSimSource seconds are 1-based.
                assert record["last_second"] == CUT_AT
                assert record["open_sessions"] == 2
                assert record["analytics"] is True
            tail = _run(coordinator, tenant_batches, CUT_AT, TOTAL_SECONDS)
            assert _observables(coordinator, tail) == _tail(cold, CUT_AT)

    def test_restore_pins_the_expected_tenant_set(self, checkpoint_path):
        same = restore_coordinator(
            checkpoint_path, tenants=_specs(), transport="inline"
        )
        same.close()

    def test_checkpoint_is_one_file_of_service_states(self, checkpoint_path):
        assert os.listdir(os.path.dirname(checkpoint_path)) == [
            os.path.basename(checkpoint_path)
        ]
        state = load_checkpoint(checkpoint_path)
        assert state["partitions"] == 2
        assert sorted(state["services"]) == ["tenant-0", "tenant-1"]
        for tid, service in state["services"].items():
            # Sessions and analytics have one home: the service state.
            assert sorted(state["serving"][tid]) == [
                "last_second", "partial_ticks", "shed_subticks", "ticks",
            ]
            assert service["ticks"] == state["serving"][tid]["ticks"] == CUT_AT
            assert [s["session_id"] for s in service["sessions"]["sessions"]] == [
                "r0", "k0",
            ]
            assert service["analytics"] is not None

    def test_tenant_state_resumes_as_a_single_process_service(
        self, tenant_batches, cold, checkpoint_path
    ):
        """A ``services`` entry is a service checkpoint state."""
        state = load_checkpoint(checkpoint_path)
        for spec in _specs():
            world = TenantWorld(spec)
            service = restore_service(
                state["services"][spec.tenant_id],
                plan=world.plan,
                readers=world.readers,
            )
            with service:
                deltas = []
                for batch in tenant_batches[spec.tenant_id][CUT_AT:]:
                    deltas.extend(_delta_key(d) for d in service.process_batch(batch))
                assert service.executor.filter_backend.name == spec.filter_backend
                assert {
                    "table": _table(service.snapshot().table),
                    "deltas": deltas,
                    "analytics": service.analytics.summary(),
                    "sessions": {
                        "r0": service.sessions.current_result("r0"),
                        "k0": service.sessions.current_result("k0"),
                    },
                } == _tail(cold, CUT_AT)[spec.tenant_id]


class TestRetiredConfigKeys:
    """A checkpoint written before the graph-filter backend was removed."""

    @pytest.fixture
    def parent_checkpoint(self, checkpoint_path, tmp_path):
        from tests.test_service_checkpoint import with_parent_config_fields

        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for service in document["state"]["services"].values():
            service["config"] = with_parent_config_fields(service["config"])
        path = tmp_path / "parent-ck.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_resumes_at_another_partition_count(
        self, tenant_batches, cold, parent_checkpoint
    ):
        assert _resume_tail(
            parent_checkpoint, tenant_batches, CUT_AT, num_partitions=3
        ) == _tail(cold, CUT_AT)

    def test_tenant_state_resumes_as_a_single_process_service(
        self, tenant_batches, cold, parent_checkpoint
    ):
        state = load_checkpoint(parent_checkpoint)
        for spec in _specs():
            world = TenantWorld(spec)
            service = restore_service(
                state["services"][spec.tenant_id],
                plan=world.plan,
                readers=world.readers,
            )
            with service:
                deltas = []
                for batch in tenant_batches[spec.tenant_id][CUT_AT:]:
                    deltas.extend(_delta_key(d) for d in service.process_batch(batch))
                expected = _tail(cold, CUT_AT)[spec.tenant_id]
                assert deltas == expected["deltas"]
                assert _table(service.snapshot().table) == expected["table"]

    def test_removed_tenant_backend_is_refused(self, checkpoint_path, tmp_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document["state"]["tenants"][0]["filter_backend"] = "kalman"
        path = tmp_path / "removed-backend.json"
        path.write_text(json.dumps(document))
        with pytest.raises(GatewayCompatibilityError, match="re-create the checkpoint"):
            restore_coordinator(str(path), transport="inline")


class TestCrashSafety:
    @pytest.mark.parametrize("crash", ["before-write", "after-write"])
    def test_a_crashed_save_leaves_a_complete_cut(
        self, tenant_batches, cold, checkpoint_path, tmp_path, monkeypatch, crash
    ):
        """A save that dies leaves a checkpoint that still resumes exactly.

        ``before-write`` dies on the first atomic write, ``after-write``
        right after it: either way the file on disk is one whole cut.
        """
        path = str(tmp_path / "gateway-ck.json")
        shutil.copyfile(checkpoint_path, path)
        real_write = gateway_checkpoint.write_json_atomic

        def crashing_write(target, payload):
            if crash == "after-write":
                real_write(target, payload)
            raise OSError("simulated crash mid-checkpoint")

        later = CUT_AT + 2
        coordinator = restore_coordinator(path, transport="inline")
        with coordinator:
            _run(coordinator, tenant_batches, CUT_AT, later)
            monkeypatch.setattr(gateway_checkpoint, "write_json_atomic", crashing_write)
            with pytest.raises(OSError, match="simulated crash"):
                save_checkpoint(coordinator, path)
            monkeypatch.undo()
        cut = CUT_AT if crash == "before-write" else later
        state = load_checkpoint(path)
        assert {record["ticks"] for record in state["serving"].values()} == {cut}
        assert _resume_tail(path, tenant_batches, cut) == _tail(cold, cut)


class TestRefusals:
    def test_tenant_set_mismatch_is_actionable(self, checkpoint_path):
        stranger = TenantSpec(tenant_id="tenant-9", seed=1, plan="small")
        with pytest.raises(GatewayCompatibilityError) as excinfo:
            restore_coordinator(
                checkpoint_path,
                tenants=[_specs()[0], stranger],
                transport="inline",
            )
        message = str(excinfo.value)
        assert "tenant set mismatch" in message
        assert "tenant-1" in message  # missing from the request
        assert "tenant-9" in message  # not in the checkpoint

    def test_changed_spec_is_refused(self, checkpoint_path):
        drifted = [
            TenantSpec(
                tenant_id=spec.tenant_id,
                seed=spec.seed + 1,  # a reseeded tenant cannot resume
                num_objects=spec.num_objects,
                plan=spec.plan,
            )
            for spec in _specs()
        ]
        with pytest.raises(GatewayCompatibilityError, match="cannot resume"):
            restore_coordinator(
                checkpoint_path, tenants=drifted, transport="inline"
            )

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(GatewayCompatibilityError, match="re-create"):
            load_checkpoint(str(tmp_path / "absent.json"))

    def test_version_1_directory_is_refused(self, tmp_path):
        (tmp_path / "partition-0000.json").write_text("{}")
        with pytest.raises(GatewayCompatibilityError, match="re-create"):
            restore_coordinator(str(tmp_path), transport="inline")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("format", "repro-service-checkpoint", "not a repro-gateway-checkpoint"),
            ("checkpoint_version", 1, "re-create"),
        ],
    )
    def test_wrong_envelope_is_refused(
        self, checkpoint_path, tmp_path, field, value, match
    ):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        document[field] = value
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps(document))
        with pytest.raises(GatewayCompatibilityError, match=match):
            load_checkpoint(str(path))

    def test_services_must_match_the_specs(self, checkpoint_path, tmp_path):
        with open(checkpoint_path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        del document["state"]["services"]["tenant-1"]
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(document))
        with pytest.raises(GatewayCompatibilityError, match="re-create"):
            load_checkpoint(str(path))


def _without_event_order(state):
    """A service state with its ENTER/LEAVE log as a sorted multiset."""
    state = json.loads(json.dumps(state))
    state["collector"]["events"] = sorted(
        state["collector"]["events"], key=lambda e: json.dumps(e, sort_keys=True)
    )
    return state


class TestMerge:
    def test_merge_is_canonical_across_partition_layouts(self, tenant_batches):
        """2-way and 3-way slices of one run merge to the same state."""
        merged = {}
        for num_partitions in (2, 3):
            coordinator = GatewayCoordinator(
                _specs(), num_partitions=num_partitions, transport="inline"
            )
            with coordinator:
                _run(coordinator, tenant_batches, 0, CUT_AT)
                states = coordinator.partition_states()
            merged[num_partitions] = {
                tid: merge_tenant_states(
                    [states[index][tid] for index in sorted(states)]
                )
                for tid in ("tenant-0", "tenant-1")
            }
        assert merged[2] == merged[3]

    def test_merge_refuses_disagreeing_slices(self, tenant_batches):
        coordinator = GatewayCoordinator(
            _specs(), num_partitions=2, transport="inline"
        )
        with coordinator:
            _run(coordinator, tenant_batches, 0, 2)
            states = coordinator.partition_states()
        slice_a = states[0]["tenant-0"]
        slice_b = json.loads(json.dumps(states[1]["tenant-0"]))
        slice_b["ticks"] += 1
        with pytest.raises(GatewayCompatibilityError):
            merge_tenant_states([slice_a, slice_b])

    def test_services_are_single_process_states(
        self, tenant_batches, checkpoint_path
    ):
        """Each tenant's entry is what one in-process service would hold.

        Only the event log's order differs: the merge sorts it by
        ``(second, object, kind)`` instead of ingest order.
        """
        state = load_checkpoint(checkpoint_path)
        for spec in _specs():
            world = TenantWorld(spec)
            service = TrackingService(
                world.config,
                plan=world.plan,
                readers=world.readers,
                use_cache=True,
                seed=spec.seed,
                filter_backend=spec.filter_backend,
            )
            with service:
                service.enable_analytics()
                service.sessions.subscribe_range(WINDOW, session_id="r0")
                service.sessions.subscribe_knn(KNN_POINT, 2, session_id="k0")
                for batch in tenant_batches[spec.tenant_id][:CUT_AT]:
                    service.process_batch(batch)
                single = service.state_dict()
            assert _without_event_order(state["services"][spec.tenant_id]) == (
                _without_event_order(single)
            )


@settings(max_examples=12, deadline=None)
@given(
    cut=st.integers(min_value=1, max_value=TOTAL_SECONDS - 1),
    save_partitions=st.integers(min_value=1, max_value=4),
    restore_partitions=st.integers(min_value=1, max_value=4),
)
def test_resume_equals_cold_at_any_cut_and_partitioning(
    tenant_batches, cold, cut, save_partitions, restore_partitions
):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "gateway-ck.json")
        coordinator = _new_coordinator(save_partitions)
        with coordinator:
            _run(coordinator, tenant_batches, 0, cut)
            save_checkpoint(coordinator, path)
        resumed = _resume_tail(path, tenant_batches, cut, restore_partitions)
    assert resumed == _tail(cold, cut)
