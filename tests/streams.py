"""Counter-based draws and clouds for tests that drive the filter directly."""

from __future__ import annotations

import json

import numpy as np

from repro.rng import CounterDraws, object_words


def draws_for(seed: int, blocks: int, size: int, second: int = 0) -> CounterDraws:
    """Draws of ``blocks`` objects (``obj-0``, ``obj-1``, ...) at one second."""
    objects = object_words(seed, [f"obj-{block}" for block in range(blocks)])
    return CounterDraws.at(objects, np.full(blocks, second), size)


def seed_cloud(model, n, circle, seed=12345, second=0):
    """One cloud of ``n`` particles seeded within ``circle``."""
    return model.initialize_in_circles([circle], draws_for(seed, 1, n, second))


def cloud_json(particles) -> str:
    """Every field of a particle cloud, dtype and values, as one JSON string."""
    return json.dumps([
        [name, str(getattr(particles, name).dtype), getattr(particles, name).tolist()]
        for name in ("edge", "offset", "direction", "speed", "dwelling", "weight")
    ])
