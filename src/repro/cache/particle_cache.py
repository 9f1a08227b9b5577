"""Cache management module (paper Section 4.5).

Stores each object's filter state after a filter run so that a later
query over the same object resumes filtering from the cached timestamp
instead of replaying from scratch. The cache is backend-agnostic: it
holds any :class:`repro.filters.base.FilterState`. It is an optimization,
not state: every draw is keyed by the stepped second, so a replay equals
a resume, and checkpoints do not save it.

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
from typing import TYPE_CHECKING, Collection, Dict, Optional, Set, Tuple

import repro.obs as obs

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
    filter state. A restored service starts with an empty cache: its
    first tick replays each object's history, which gives the same
    cloud as resuming a saved entry.

    Thread-safe: lookups, stores and the statistics counters are guarded
    by one lock.
    """

    def __init__(self) -> None:
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

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)
