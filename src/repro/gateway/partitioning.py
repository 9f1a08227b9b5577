"""Consistent-hash partitioning of ``(tenant, object)`` keys.

The gateway assigns every tracked object to exactly one worker
*process* (a partition). Assignment must be

* **deterministic** — the same key maps to the same partition on every
  host and every run, because checkpoint restore re-derives placement
  instead of persisting it;
* **stable under resize** — growing the ring from N to N+1 partitions
  should move ~1/(N+1) of the keys, not reshuffle everything, which
  keeps a different-partition-count restore from invalidating most of
  the per-object filter cache slices.

Both come from a classic consistent-hash ring: each partition owns
``vnodes`` pseudo-random points on a 64-bit circle (derived with
:func:`hashlib.blake2b`, never Python's randomized ``hash``), and a key
lands on the first point clockwise from its own hash.

Placement never feeds the filters' draws — every filter draw is keyed
by ``(seed, object, stepped second)`` — so *any* assignment yields
bit-identical tracking output; the ring only shapes load balance and
resize churn.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Tuple

#: Virtual nodes per partition. 64 keeps the expected imbalance of the
#: largest partition under ~20% for small partition counts.
DEFAULT_VNODES = 64


def hash_key(key: str) -> int:
    """Stable 64-bit hash of a ring key (blake2b, platform-independent)."""
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def ring_key(tenant_id: str, object_id: str) -> str:
    """The ring key of one tenant's object (tenant ids never contain '/')."""
    return f"{tenant_id}/{object_id}"


class HashRing:
    """A fixed-size consistent-hash ring over worker partitions."""

    def __init__(self, num_partitions: int, vnodes: int = DEFAULT_VNODES) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.num_partitions = num_partitions
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for partition in range(num_partitions):
            for replica in range(vnodes):
                points.append(
                    (hash_key(f"partition-{partition}#vnode-{replica}"), partition)
                )
        points.sort()
        self._hashes: List[int] = [point for point, _ in points]
        self._owners: List[int] = [owner for _, owner in points]
        #: ``(tenant, object)`` -> partition, filled by :meth:`partition_of`.
        self._placement: Dict[Tuple[str, str], int] = {}

    def partition_of(self, tenant_id: str, object_id: str) -> int:
        """The partition owning one tenant's object.

        A key's ring point is a pure function of the key, so its owner is
        memoized on first use: each tag is hashed once per ring, not once
        per reading. The memo holds one entry per key seen.
        """
        key = (tenant_id, object_id)
        owner = self._placement.get(key)
        if owner is None:
            point = hash_key(ring_key(tenant_id, object_id))
            index = bisect.bisect_right(self._hashes, point)
            if index == len(self._hashes):
                index = 0
            owner = self._placement[key] = self._owners[index]
        return owner

    def spread(
        self, tenant_id: str, object_ids: Iterable[str]
    ) -> Dict[int, List[str]]:
        """Group object ids by owning partition (all partitions present)."""
        groups: Dict[int, List[str]] = {
            partition: [] for partition in range(self.num_partitions)
        }
        for object_id in object_ids:
            groups[self.partition_of(tenant_id, object_id)].append(object_id)
        return groups

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HashRing(num_partitions={self.num_partitions}, "
            f"vnodes={self.vnodes})"
        )
