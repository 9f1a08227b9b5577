"""Tests for the cache management module."""

import numpy as np
import pytest

from repro.cache import CacheStats, ParticleCacheManager
from repro.core import ParticleSet


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

    def test_store_copies_input(self):
        cache = ParticleCacheManager()
        source = particles(2.0)
        cache.store("o1", source, 5, 3)
        source.offset[:] = 99.0
        ps, _ = cache.lookup("o1", 3)
        assert np.allclose(ps.offset, 2.0)

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
