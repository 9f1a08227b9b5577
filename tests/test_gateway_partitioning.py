"""The consistent-hash ring: determinism, coverage, resize stability."""

import bisect

import pytest

from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
from repro.gateway.partitioning import (
    DEFAULT_VNODES,
    HashRing,
    hash_key,
    ring_key,
)
from repro.service import LiveSimSource
from repro.sim import Simulation

OBJECTS = [f"object-{i}" for i in range(200)]


def unmemoized_owner(num_partitions, tenant_id, object_id, vnodes=DEFAULT_VNODES):
    """The ring rule computed from scratch: first point clockwise."""
    points = sorted(
        (hash_key(f"partition-{p}#vnode-{r}"), p)
        for p in range(num_partitions)
        for r in range(vnodes)
    )
    hashes = [point for point, _ in points]
    index = bisect.bisect_right(hashes, hash_key(ring_key(tenant_id, object_id)))
    return points[index % len(points)][1]


class TestHashKey:
    def test_deterministic_across_instances(self):
        assert hash_key("tenant-0/object-1") == hash_key("tenant-0/object-1")

    def test_64_bit_range(self):
        for key in ("", "a", "tenant-0/object-1", "x" * 500):
            assert 0 <= hash_key(key) < 2**64

    def test_ring_key_namespaces_tenants(self):
        assert ring_key("t0", "obj") == "t0/obj"
        assert ring_key("t0", "obj") != ring_key("t1", "obj")


class TestHashRing:
    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)

    def test_same_geometry_same_placement(self):
        one = HashRing(4)
        two = HashRing(4)
        for object_id in OBJECTS:
            assert one.partition_of("t", object_id) == two.partition_of(
                "t", object_id
            )

    def test_partitions_in_range(self):
        ring = HashRing(3)
        for object_id in OBJECTS:
            assert 0 <= ring.partition_of("t", object_id) < 3

    def test_spread_covers_every_partition(self):
        ring = HashRing(4, vnodes=DEFAULT_VNODES)
        groups = ring.spread("t", OBJECTS)
        assert sorted(groups) == [0, 1, 2, 3]
        assert all(groups[p] for p in groups)
        assert sum(len(v) for v in groups.values()) == len(OBJECTS)

    def test_tenants_are_partitioned_independently(self):
        ring = HashRing(4)
        placements = [
            tuple(ring.partition_of(t, o) for o in OBJECTS[:50])
            for t in ("tenant-0", "tenant-1")
        ]
        # Same object ids, different tenants -> (almost surely) not the
        # same placement vector; the keyspaces are namespaced.
        assert placements[0] != placements[1]

    def test_resize_moves_a_minority_of_keys(self):
        """Growing N -> N+1 must not reshuffle the world.

        The whole point of consistent hashing: a restore at a different
        partition count keeps most objects on their old partition.
        Expected churn is ~1/(N+1); assert it stays well under half.
        """
        before = HashRing(4)
        after = HashRing(5)
        moved = sum(
            1
            for object_id in OBJECTS
            if before.partition_of("t", object_id)
            != after.partition_of("t", object_id)
        )
        assert moved < len(OBJECTS) / 2
        assert moved > 0  # the new partition did take ownership of keys


class TestMemoizedPlacement:
    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 4])
    def test_memo_equals_a_fresh_ring_for_every_key(self, num_partitions):
        ring = HashRing(num_partitions)
        keys = [(t, o) for t in ("tenant-0", "tenant-1") for o in OBJECTS[:60]]
        first = [ring.partition_of(t, o) for t, o in keys]
        again = [ring.partition_of(t, o) for t, o in keys]  # from the memo
        fresh = [HashRing(num_partitions).partition_of(t, o) for t, o in keys]
        assert first == again == fresh
        assert first == [unmemoized_owner(num_partitions, t, o) for t, o in keys]

    @pytest.mark.parametrize("restore_partitions", [1, 3, 4])
    def test_memo_after_a_restore_at_another_partition_count(
        self, restore_partitions
    ):
        specs = demo_tenants(2, base_seed=5, num_objects=4, plan="small")
        with GatewayCoordinator(specs, 2, transport="inline") as source:
            for spec in specs:
                world = TenantWorld(spec)
                sim = Simulation(
                    world.config, plan=world.plan, readers=world.readers,
                    build_symbolic=False,
                )
                for batch in LiveSimSource(sim, 3).batches():
                    source.process_batch(spec.tenant_id, batch)
            state = source.state_dict()
        with GatewayCoordinator(
            specs, restore_partitions, transport="inline"
        ) as restored:
            restored.restore_state(state)
            ring = restored.ring
            # Keys the restore placed, then keys first seen after it.
            placed = [ring.partition_of(t, o) for t, o in list(ring._placement)]
            assert len(placed) == 8  # every restored object was placed
            new_keys = [(s.tenant_id, o) for s in specs for o in OBJECTS[:40]]
            later = [ring.partition_of(t, o) for t, o in new_keys]
            for (t, o), owner in zip(list(ring._placement), placed):
                assert owner == unmemoized_owner(restore_partitions, t, o)
            assert later == [
                unmemoized_owner(restore_partitions, t, o) for t, o in new_keys
            ]
