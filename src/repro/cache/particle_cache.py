"""Cache management module (paper Section 4.5).

Stores each object's filter state after a filter run so that a later
query over the same object resumes filtering from the cached timestamp
instead of replaying from scratch. The cache is backend-agnostic: it
holds any :class:`repro.filters.base.FilterState` (particle sets,
symbolic states) and tags its serialized form with the owning backend's
name and state version so checkpoints refuse incompatible restores.

Invalidation policy (exactly as the paper argues): a cached state is only
valid while the object has not been detected by a *new* device since it
was stored — once a new device run begins, the retained reading window
shifts and the old state would mix inconsistent information. The
collector exposes a per-object ``device_generation`` counter; the cache
compares generations on lookup.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Collection, Dict, Optional, Set, Tuple

import repro.obs as obs
from repro.core.particles import ParticleSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.filters.base import FilterState


@dataclass
class CachedFilterState:
    """One cache entry: filter state of one object at one second."""

    object_id: str
    state: "FilterState"
    state_second: int
    device_generation: int


@dataclass
class CacheStats:
    """Hit/miss counters (reported by the cache ablation)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


class ParticleCacheManager:
    """Per-object filter state cache with generation-based invalidation.

    Despite the historical name, the manager caches *any* backend's
    filter state; ``backend`` / ``state_version`` record whose states it
    holds so serialized caches are self-describing. The default
    ``decoder`` keeps plain ``ParticleCacheManager()`` (and pre-backend
    checkpoints) decoding particle sets.

    Thread-safe, so callers may filter and checkpoint from different
    threads: lookups, stores, serialization and the statistics counters
    are guarded by one lock.
    """

    def __init__(
        self,
        backend: str = "particle",
        state_version: int = 1,
        decoder: "Optional[Callable[[Dict[str, object]], FilterState]]" = None,
    ) -> None:
        self.backend = backend
        self.state_version = state_version
        self._decoder: "Callable[[Dict[str, object]], FilterState]" = (
            decoder if decoder is not None else ParticleSet.from_state
        )
        self._entries: Dict[str, CachedFilterState] = {}
        #: Ids stored since the last :meth:`settle`; their states may share memory.
        self._latest: Set[str] = set()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def lookup(
        self, object_id: str, device_generation: int
    ) -> "Optional[Tuple[FilterState, int]]":
        """Fetch a resumable state, or None on miss/stale entry.

        Returns ``(state, state_second)``. The state is the cache's own,
        not a copy: callers must not mutate it. Every filter backend
        copies a resume state before it runs (the particle kernel by
        stacking it). Stale entries (device generation changed) are
        evicted on sight.
        """
        with self._lock:
            entry = self._entries.get(object_id)
            if entry is None:
                self.stats.misses += 1
                obs.add("cache.misses")
                return None
            if entry.device_generation != device_generation:
                del self._entries[object_id]
                self.stats.invalidations += 1
                self.stats.misses += 1
                obs.add("cache.invalidations")
                obs.add("cache.misses")
                return None
            self.stats.hits += 1
            obs.add("cache.hits")
            return entry.state, entry.state_second

    def store(
        self,
        object_id: str,
        state: "FilterState",
        state_second: int,
        device_generation: int,
    ) -> None:
        """Insert or replace an object's cached state (not copied).

        ``state`` is a :attr:`~repro.filters.base.FilterRun.state`, which
        nothing mutates once its run has returned, so the cache keeps the
        object itself. A particle state is a view of its tick's stack;
        :meth:`settle` keeps such views from outliving their tick.
        """
        with self._lock:
            self._entries[object_id] = CachedFilterState(
                object_id=object_id,
                state=state,
                state_second=state_second,
                device_generation=device_generation,
            )
            self._latest.add(object_id)

    def settle(self, stored: Collection[str]) -> None:
        """Close one round of stores; ``stored`` holds this round's ids.

        An entry from the previous round that this round did not replace
        is detached (:meth:`~repro.filters.base.FilterState.detached`), so
        a tick's stack stays alive only through the entries of the tick
        after it. An entry is detached at most once, and a round that
        replaces every entry detaches nothing.
        """
        with self._lock:
            for object_id in self._latest.difference(stored):
                entry = self._entries.get(object_id)
                if entry is not None:
                    entry.state = entry.state.detached()
            self._latest = set(stored)

    def evict(self, object_id: str) -> None:
        """Drop an object's entry (no-op when absent)."""
        with self._lock:
            self._entries.pop(object_id, None)

    def clear(self) -> None:
        """Drop all entries; statistics are preserved."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # checkpoint support (repro.service.checkpoint)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All entries as a JSON-safe dict (statistics are not included).

        Filter states round-trip bit-for-bit through their ``to_state``
        methods, which is what makes a restored service resume *exactly*
        where it left off: a resumed filter run replays the same seconds
        from the same state. The document carries the owning backend's
        name and state version so restores can refuse mismatches.
        """
        with self._lock:
            return {
                "backend": self.backend,
                "state_version": self.state_version,
                "entries": {
                    object_id: {
                        "state_second": entry.state_second,
                        "device_generation": entry.device_generation,
                        "state": entry.state.to_state(),
                    }
                    for object_id, entry in self._entries.items()
                },
            }

    def restore_state(self, state: dict) -> None:
        """Replace all entries from :meth:`state_dict` output.

        Raises ``FilterStateError`` when the document was produced by a
        different backend or an incompatible state version.
        """
        from repro.filters.base import FilterStateError

        backend = state.get("backend", "particle")
        version = int(state.get("state_version", 1))
        if backend != self.backend:
            raise FilterStateError(
                f"cached filter states belong to backend {backend!r}; "
                f"this cache decodes {self.backend!r} states"
            )
        if version != self.state_version:
            raise FilterStateError(
                f"cached {self.backend!r} states have state version "
                f"{version}; this cache speaks version {self.state_version}"
            )
        with self._lock:
            self._entries = {
                object_id: CachedFilterState(
                    object_id=object_id,
                    state=self._decoder(entry["state"]),
                    state_second=int(entry["state_second"]),
                    device_generation=int(entry["device_generation"]),
                )
                for object_id, entry in state["entries"].items()
            }

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)
