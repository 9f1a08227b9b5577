"""Cache management module (paper Section 4.5)."""

from repro.cache.particle_cache import (
    CachedFilterState,
    CacheStats,
    ParticleCacheManager,
)

__all__ = [
    "CachedFilterState",
    "CacheStats",
    "ParticleCacheManager",
]
