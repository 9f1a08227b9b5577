"""Tests for the cache management module."""

import copy

import numpy as np
import pytest

from repro.cache import CacheStats, ParticleCacheManager
from repro.config import DEFAULT_CONFIG
from repro.core import ParticleSet
from repro.geometry import Rect
from repro.service import ReplaySource, TrackingService
from repro.sim import Simulation
from tests.streams import cloud_json


def particles(offset=1.0):
    ps = ParticleSet.empty(8)
    ps.offset[:] = offset
    return ps


class TestCacheBasics:
    def test_miss_on_empty(self):
        cache = ParticleCacheManager()
        assert cache.lookup("o1", 0) is None
        assert cache.stats.misses == 1

    def test_store_and_hit(self):
        cache = ParticleCacheManager()
        cache.store("o1", particles(2.0), state_second=5, device_generation=3)
        hit = cache.lookup("o1", 3)
        assert hit is not None
        ps, second = hit
        assert second == 5
        assert np.allclose(ps.offset, 2.0)
        assert cache.stats.hits == 1

    def test_lookup_shares_stored_state(self):
        # Lookups hand out the cache's own state: the filter kernel
        # stacks it by concatenation and never writes to it.
        cache = ParticleCacheManager()
        cache.store("o1", particles(2.0), 5, 3)
        first, _ = cache.lookup("o1", 3)
        second, _ = cache.lookup("o1", 3)
        assert first is second
        assert np.allclose(first.offset, 2.0)

    @pytest.mark.parametrize("backend", ["particle"])
    @pytest.mark.parametrize("objects", [1, 8])
    def test_stored_states_survive_later_ticks(self, backend, objects):
        # Entries are stored without a copy (the FilterRun.state contract):
        # every entry must still equal a deep copy taken when it was
        # stored after the later ticks, which resume from it.
        config = DEFAULT_CONFIG.with_overrides(num_objects=objects, seed=11)
        sim = Simulation(config, build_symbolic=False)
        readings = [reading for _ in range(16) for reading in sim.step()]
        service = TrackingService(config, filter_backend=backend)
        try:
            cache = service.executor.cache
            stored = {}
            for batch in ReplaySource(readings).batches():
                service.process_batch(batch)
                for entry in cache._entries.values():
                    if id(entry.state) not in stored:
                        stored[id(entry.state)] = (entry.state, copy.deepcopy(entry.state))
            assert cache.stats.hits >= 3
            for state, snapshot in stored.values():
                assert cloud_json(state) == cloud_json(snapshot)
        finally:
            service.close()

    def test_settle_detaches_entries_a_round_passes_by(self):
        stack = particles(3.0)
        first, second = stack[:4], stack[4:]
        cache = ParticleCacheManager()
        cache.store("a", first, 5, 0)
        cache.store("b", second, 5, 0)
        cache.settle(["a", "b"])
        assert cache.lookup("b", 0)[0] is second  # nothing passed by yet
        replacement = particles(4.0)[:4]
        cache.store("a", replacement, 6, 0)
        cache.settle(["a"])
        kept, _ = cache.lookup("b", 0)
        assert kept is not second
        assert kept.edge.base is None and kept.offset.base is None
        assert cloud_json(kept) == cloud_json(second)
        assert cache.lookup("a", 0)[0] is replacement
        cache.settle([])
        detached, _ = cache.lookup("a", 0)
        assert detached.offset.base is None
        assert cache.lookup("b", 0)[0] is kept  # detached once only

    def test_pruned_service_holds_no_stale_stacks(self):
        # With pruning, objects drop out of the candidate set; their
        # entries must not keep their old tick's whole stack alive.
        config = DEFAULT_CONFIG.with_overrides(num_objects=30, seed=7)
        sim = Simulation(config, build_symbolic=False)
        readings = [reading for _ in range(40) for reading in sim.step()]
        service = TrackingService(config, use_pruning=True)
        service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
        try:
            batches = list(ReplaySource(readings).batches())
            for batch in batches:
                service.process_batch(batch)
            cache = service.executor.cache
            states = [entry.state for entry in cache._entries.values()]
            assert len(states) > len(service.snapshot().candidates)
            for name in ("edge", "offset", "direction", "speed", "dwelling", "weight"):
                arrays = [getattr(state, name) for state in states]
                buffers = {
                    id(array if array.base is None else array.base):
                        (array if array.base is None else array.base).nbytes
                    for array in arrays
                }
                assert sum(buffers.values()) == sum(array.nbytes for array in arrays), name
        finally:
            service.close()

    def test_generation_mismatch_invalidates(self):
        cache = ParticleCacheManager()
        cache.store("o1", particles(), 5, 3)
        assert cache.lookup("o1", 4) is None
        assert cache.stats.invalidations == 1
        # Entry is evicted, not retried.
        assert "o1" not in cache
        assert cache.lookup("o1", 3) is None

    def test_replace(self):
        cache = ParticleCacheManager()
        cache.store("o1", particles(1.0), 5, 3)
        cache.store("o1", particles(7.0), 9, 3)
        ps, second = cache.lookup("o1", 3)
        assert second == 9
        assert np.allclose(ps.offset, 7.0)

    def test_evict_and_clear(self):
        cache = ParticleCacheManager()
        cache.store("o1", particles(), 5, 3)
        cache.store("o2", particles(), 6, 1)
        cache.evict("o1")
        assert "o1" not in cache
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0

    def test_evict_missing_is_noop(self):
        ParticleCacheManager().evict("ghost")


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_hit_rate_empty(self):
        assert CacheStats().hit_rate == 0.0
