"""The gateway coordinator: the bit-identity guarantee and degradation.

The acceptance property of the gateway: a multi-tenant run partitioned
across 1, 2, or 4 workers produces snapshots, standing-query deltas, and
query answers identical to a single-process ``TrackingService`` per
tenant — because every filter draw is keyed by ``(seed, object, stepped
second)``, placement cannot change the output, and because every table
keeps its anchor buckets in ascending object id, the answers match byte
for byte, key order included (:class:`TestSerializedIdentity`).
"""

import json
import os
import pickle
import signal

import pytest

from repro.gateway import (
    GatewayCoordinator,
    GatewayError,
    TenantSpec,
    TenantWorld,
    demo_tenants,
)
from repro.gateway.worker import decode_readings, encode_readings
from repro.geometry import Point, Rect
from repro.rfid.readings import RawReading
from repro.service import LiveSimSource, TrackingService
from repro.sim import Simulation

SECONDS = 8
WINDOW = Rect(0.0, 0.0, 12.0, 12.0)
KNN_POINT = Point(5.0, 5.0)
KNN_K = 3


def _specs():
    return demo_tenants(2, base_seed=11, num_objects=5, plan="small")


def _batches(spec, seconds=SECONDS):
    world = TenantWorld(spec)
    sim = Simulation(
        world.config, plan=world.plan, readers=world.readers,
        build_symbolic=False,
    )
    return list(LiveSimSource(sim, seconds).batches())


@pytest.fixture(scope="module")
def tenant_batches():
    return {spec.tenant_id: _batches(spec) for spec in _specs()}


def _delta_key(delta):
    return (delta.query_id, delta.second, delta.entered, delta.left, delta.updated)


@pytest.fixture(scope="module")
def reference(tenant_batches):
    """Single-process per-tenant runs: final tables + session deltas."""
    tables = {}
    deltas = {}
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
        service.sessions.subscribe_range(WINDOW, session_id="r0")
        service.sessions.subscribe_knn(KNN_POINT, KNN_K, session_id="k0")
        collected = []
        for batch in tenant_batches[spec.tenant_id]:
            collected.extend(service.process_batch(batch))
        table = service.snapshot().table
        tables[spec.tenant_id] = {
            obj: table.distribution_of(obj) for obj in sorted(table.objects())
        }
        deltas[spec.tenant_id] = [_delta_key(d) for d in collected]
        service.close()
    return {"tables": tables, "deltas": deltas}


def _run_gateway(tenant_batches, num_partitions, transport="inline"):
    coordinator = GatewayCoordinator(
        _specs(), num_partitions=num_partitions, transport=transport
    )
    deltas = {tid: [] for tid in tenant_batches}
    try:
        for spec in _specs():
            coordinator.subscribe_range(spec.tenant_id, WINDOW, session_id="r0")
            coordinator.subscribe_knn(
                spec.tenant_id, KNN_POINT, KNN_K, session_id="k0"
            )
        for step in range(SECONDS):
            for tid in tenant_batches:
                coordinator.submit_tick(tid, tenant_batches[tid][step])
            for _ in tenant_batches:
                tid, _second, tick_deltas = coordinator.collect_tick()
                deltas[tid].extend(_delta_key(d) for d in tick_deltas)
        tables = {}
        for tid in tenant_batches:
            table = coordinator.latest_snapshot(tid).table
            tables[tid] = {
                obj: table.distribution_of(obj)
                for obj in sorted(table.objects())
            }
        return coordinator, tables, deltas
    except BaseException:
        coordinator.close()
        raise


class TestBitIdentity:
    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_inline_matches_single_process(
        self, tenant_batches, reference, num_partitions
    ):
        coordinator, tables, deltas = _run_gateway(
            tenant_batches, num_partitions
        )
        coordinator.close()
        assert tables == reference["tables"]
        assert deltas == reference["deltas"]

    def test_process_transport_matches_single_process(
        self, tenant_batches, reference
    ):
        coordinator, tables, deltas = _run_gateway(
            tenant_batches, 2, transport="process"
        )
        coordinator.close()
        assert tables == reference["tables"]
        assert deltas == reference["deltas"]

    def test_tenant_isolation(self, tenant_batches, reference):
        """Dropping a tenant does not perturb the survivors' output."""
        spec = _specs()[0]
        coordinator = GatewayCoordinator(
            [spec], num_partitions=2, transport="inline"
        )
        with coordinator:
            for step in range(SECONDS):
                coordinator.process_batch(
                    spec.tenant_id, tenant_batches[spec.tenant_id][step]
                )
            table = coordinator.latest_snapshot(spec.tenant_id).table
            alone = {
                obj: table.distribution_of(obj)
                for obj in sorted(table.objects())
            }
        assert alone == reference["tables"][spec.tenant_id]


def _serialized_tick(table, range_result, knn_result, deltas):
    """One tick as JSON without ``sort_keys``: key order is part of the bytes."""
    return json.dumps({
        "objects": {obj: table.distribution_of(obj) for obj in table.objects()},
        "buckets": {str(ap): table.items_at(ap) for ap in table.anchors()},
        "range": range_result.probabilities,
        "knn": knn_result.probabilities,
        "deltas": [[d.query_id, d.second, d.entered, d.left, d.updated] for d in deltas],
    })


@pytest.fixture(scope="module")
def serialized_reference(tenant_batches):
    """Every tick of single-process per-tenant runs, serialized."""
    out = {}
    for spec in _specs():
        world = TenantWorld(spec)
        with TrackingService(
            world.config, plan=world.plan, readers=world.readers, seed=spec.seed,
        ) as service:
            service.sessions.subscribe_range(WINDOW, session_id="r0")
            service.sessions.subscribe_knn(KNN_POINT, KNN_K, session_id="k0")
            ticks = []
            for batch in tenant_batches[spec.tenant_id]:
                deltas = service.process_batch(batch)
                ticks.append(_serialized_tick(
                    service.snapshot().table,
                    service.query_range(WINDOW, query_id="q-range"),
                    service.query_knn(KNN_POINT, KNN_K, query_id="q-knn"),
                    deltas,
                ))
        out[spec.tenant_id] = ticks
    return out


class TestSerializedIdentity:
    """Answers and deltas are byte-identical at any partition count."""

    @pytest.mark.parametrize("transport", ["inline", "process"])
    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_json_equals_single_process(
        self, tenant_batches, serialized_reference, num_partitions, transport
    ):
        ticks = {tid: [] for tid in tenant_batches}
        with GatewayCoordinator(
            _specs(), num_partitions=num_partitions, transport=transport
        ) as coordinator:
            for spec in _specs():
                coordinator.subscribe_range(spec.tenant_id, WINDOW, session_id="r0")
                coordinator.subscribe_knn(spec.tenant_id, KNN_POINT, KNN_K, session_id="k0")
            for step in range(SECONDS):
                for tid in tenant_batches:
                    coordinator.submit_tick(tid, tenant_batches[tid][step])
                for _ in tenant_batches:
                    tid, _second, deltas = coordinator.collect_tick()
                    ticks[tid].append(_serialized_tick(
                        coordinator.latest_snapshot(tid).table,
                        coordinator.query_range(tid, WINDOW, query_id="q-range"),
                        coordinator.query_knn(tid, KNN_POINT, KNN_K, query_id="q-knn"),
                        deltas,
                    ))
        assert ticks == serialized_reference
        assert any('"deltas": [[' in tick for run in ticks.values() for tick in run)


class TestQueries:
    def test_range_and_knn_answer_from_merged_snapshot(self, tenant_batches):
        coordinator, _tables, _deltas = _run_gateway(tenant_batches, 2)
        with coordinator:
            for spec in _specs():
                plan = TenantWorld(spec).plan
                box = plan.bounds
                result = coordinator.query_range(
                    spec.tenant_id,
                    Rect(box.min_x, box.min_y, box.max_x, box.max_y),
                )
                # Whole-plan window: every tracked object is fully inside.
                assert result.probabilities
                assert all(
                    p == pytest.approx(1.0)
                    for p in result.probabilities.values()
                )
                knn = coordinator.query_knn(spec.tenant_id, KNN_POINT, 2)
                ranked = knn.ranked()
                # Probabilistic kNN: every candidate with its membership
                # probability, ranked descending (not truncated to k).
                assert ranked
                probs = [p for _object_id, p in ranked]
                assert probs == sorted(probs, reverse=True)

    def test_unknown_tenant_is_rejected(self, tenant_batches):
        with GatewayCoordinator(_specs(), 2, transport="inline") as coordinator:
            with pytest.raises(KeyError):
                coordinator.query_knn("nobody", KNN_POINT, 1)
            with pytest.raises(KeyError):
                coordinator.submit_tick(
                    "nobody", tenant_batches["tenant-0"][0]
                )

    def test_collect_without_submit_is_an_error(self):
        with GatewayCoordinator(_specs(), 2, transport="inline") as coordinator:
            with pytest.raises(GatewayError):
                coordinator.collect_tick()


class TestDegradation:
    def test_dead_worker_degrades_but_still_answers(self, tenant_batches):
        coordinator, _tables, _deltas = _run_gateway(tenant_batches, 2)
        with coordinator:
            assert coordinator.health()["status"] == "ok"
            before = coordinator.latest_snapshot("tenant-0").table.objects()
            # Regenerate the next second: LiveSimSource batches above
            # only cover SECONDS ticks, so extend from a fresh sim.
            extended = {
                spec.tenant_id: _batches(spec, SECONDS + 1)
                for spec in _specs()
            }
            for tid, batches in extended.items():
                coordinator.submit_tick(tid, batches[SECONDS])
            # Die *between* submit and collect: the fan-in barrier must
            # complete the tick as partial over the survivors.
            coordinator.handles[0].kill()
            for _ in extended:
                coordinator.collect_tick()
            health = coordinator.health()
            assert health["status"] == "degraded"
            assert health["dead_partitions"] == 1
            for record in health["tenants"].values():
                assert record["partial_ticks"] == 1
            # Queries keep answering over the surviving slice.
            result = coordinator.query_range("tenant-0", WINDOW)
            after = coordinator.latest_snapshot("tenant-0").table.objects()
            assert result is not None
            assert set(after) <= set(before)
            assert after  # partition 1's slice survived

    def test_worker_dead_at_submit_is_a_missing_partition(
        self, tenant_batches, monkeypatch
    ):
        """A worker that dies between the fan-out's ``alive()`` check and
        the send drops the sub-tick; the barrier then counts it missing."""
        coordinator = GatewayCoordinator(_specs(), 2, transport="inline")
        with coordinator:
            tid = "tenant-0"
            coordinator.process_batch(tid, tenant_batches[tid][0])
            victim = coordinator.handles[0]
            victim.kill()
            monkeypatch.setattr(victim, "alive", lambda: True)
            coordinator.submit_tick(tid, tenant_batches[tid][1])
            assert coordinator._pending[0].parts == [0, 1]
            collected_tid, second, _ = coordinator.collect_tick()
            assert (collected_tid, second) == (tid, tenant_batches[tid][1].second)
            assert coordinator.last_slo()["gateway"]["missing_partitions"] == 1
            assert coordinator.last_slo()["gateway"]["partitions"] == 1
            record = coordinator.health()["tenants"][tid]
            assert record["partial_ticks"] == 1
            assert record["ticks"] == 2


    def test_worker_killed_mid_tick_from_outside(self, tenant_batches):
        """A worker SIGKILLed by another process is seen through its pipe.

        Liveness is the pump threads' view (EOF/broken pipe), not a
        ``waitpid``: nothing calls ``handle.kill()`` here. The victim is
        stopped before the fan-out so that it cannot answer either
        sub-tick before the kill lands.
        """
        coordinator, _tables, _deltas = _run_gateway(
            tenant_batches, 2, transport="process"
        )
        with coordinator:
            before = coordinator.latest_snapshot("tenant-0").table.objects()
            extended = {
                spec.tenant_id: _batches(spec, SECONDS + 2) for spec in _specs()
            }
            victim = coordinator.handles[0]
            os.kill(victim._process.pid, signal.SIGSTOP)
            for tid, batches in extended.items():
                coordinator.submit_tick(tid, batches[SECONDS])
            os.kill(victim._process.pid, signal.SIGKILL)
            for _ in extended:
                coordinator.collect_tick()
                slo = coordinator.last_slo()["gateway"]
                assert slo["missing_partitions"] == 1
                assert slo["partitions"] == 1
            health = coordinator.health()
            assert health["status"] == "degraded"
            assert health["dead_partitions"] == 1
            assert [w["alive"] for w in health["workers"]] == [False, True]
            for record in health["tenants"].values():
                assert record["partial_ticks"] == 1
            # The next tick fans out to the survivor only.
            coordinator.submit_tick("tenant-0", extended["tenant-0"][SECONDS + 1])
            assert coordinator._pending[0].parts == [1]
            coordinator.collect_tick()
            assert coordinator.last_slo()["gateway"]["missing_partitions"] == 1
            # Queries keep answering over the surviving slice.
            after = coordinator.latest_snapshot("tenant-0").table.objects()
            assert after  # partition 1's slice survived
            assert set(after) <= set(before)
            assert coordinator.query_range("tenant-0", WINDOW) is not None
            assert coordinator.query_knn("tenant-0", KNN_POINT, KNN_K).ranked()


    def test_process_liveness_reads_no_process_status(self, monkeypatch):
        """``alive()`` and ``health()`` read the pump threads' flag only."""
        coordinator = GatewayCoordinator(_specs(), 2, transport="process")
        with coordinator:
            with monkeypatch.context() as patch:
                for handle in coordinator.handles:
                    patch.setattr(
                        handle._process, "is_alive",
                        lambda: pytest.fail("alive() asked the OS"),
                    )
                assert all(handle.alive() for handle in coordinator.handles)
                assert coordinator.health()["dead_partitions"] == 0


class TestWireFormat:
    def test_readings_round_trip_field_for_field(self, tenant_batches):
        readings = [
            reading
            for batches in tenant_batches.values()
            for batch in batches
            for reading in batch.readings
        ]
        readings.append(RawReading(time=3, tag_id="o-int-time", reader_id="d1"))
        assert readings
        wire = encode_readings(readings)
        assert all(type(record) is tuple and len(record) == 3 for record in wire)
        decoded = decode_readings(pickle.loads(pickle.dumps(wire)))
        assert decoded == tuple(readings)
        for got, want in zip(decoded, readings):
            for name in ("time", "tag_id", "reader_id"):
                assert type(getattr(got, name)) is type(getattr(want, name))

    def test_empty_slice(self):
        assert encode_readings([]) == []
        assert decode_readings([]) == ()


class TestClose:
    @pytest.mark.filterwarnings(
        "error::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_process_close_never_kills_the_receiver(self):
        """Close joins each pipe's receiver before closing the pipe.

        Closing the pipe first raced the receiver's next ``recv()`` and
        killed the thread with a ``TypeError`` on a minority of closes,
        so the test closes many coordinators to make the race show.
        """
        for _ in range(40):
            coordinator = GatewayCoordinator(_specs(), 2, transport="process")
            coordinator.close()
            for handle in coordinator.handles:
                assert not handle._receiver.is_alive()


class TestValidation:
    def test_duplicate_tenants_rejected(self):
        spec = TenantSpec(tenant_id="t", seed=1, plan="small")
        with pytest.raises(ValueError):
            GatewayCoordinator([spec, spec], 2, transport="inline")

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError):
            GatewayCoordinator(_specs(), 2, transport="carrier-pigeon")

    def test_tenant_spec_validation(self):
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="", seed=1)
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="a/b", seed=1)
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="t", seed=1, plan="atlantis")
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="t", seed=1, num_objects=0)

    @pytest.mark.parametrize("backend", ["kalman", "bogus"])
    def test_tenant_spec_refuses_unknown_backend(self, backend):
        with pytest.raises(ValueError, match=f"unknown filter backend {backend!r}"):
            TenantSpec(tenant_id="t", seed=1, filter_backend=backend)
        with pytest.raises(ValueError, match="unknown filter backend"):
            TenantSpec.from_dict({"tenant_id": "t", "seed": 1, "filter_backend": backend})
        assert TenantSpec(tenant_id="t", seed=1, filter_backend="symbolic")
