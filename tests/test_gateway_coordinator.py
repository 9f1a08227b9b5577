"""The gateway coordinator: the bit-identity guarantee and degradation.

The acceptance property of the gateway: a multi-tenant run partitioned
across 1, 2, or 4 workers produces snapshots, standing-query deltas, and
query answers identical to a single-process ``TrackingService`` per
tenant — because every filter run draws from a
``(seed, second, object_id)`` RNG stream, placement cannot change the
output.
"""

import pytest

from repro.gateway import (
    GatewayCoordinator,
    GatewayError,
    TenantSpec,
    TenantWorld,
    demo_tenants,
)
from repro.geometry import Point, Rect
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

    def test_shed_bookkeeping_unblocks_the_barrier(self, tenant_batches):
        """A recorded shed removes the partition from the tick barrier."""
        coordinator = GatewayCoordinator(_specs(), 2, transport="inline")
        with coordinator:
            tid = "tenant-0"
            batch = tenant_batches[tid][0]
            coordinator.submit_tick(tid, batch)
            entry = coordinator._pending[0]
            victim = entry.parts[0]
            coordinator._record_shed(tid, batch.second, victim)
            assert victim not in entry.parts
            assert coordinator.health()["tenants"][tid]["shed_subticks"] == 1
            # The barrier completes from the remaining partition alone.
            collected_tid, second, _ = coordinator.collect_tick()
            assert (collected_tid, second) == (tid, batch.second)


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
