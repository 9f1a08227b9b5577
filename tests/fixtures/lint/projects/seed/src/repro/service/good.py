"""SEED project fixture: the sanctioned shapes (must draw no finding)."""

import numpy as np

from repro.rng import CounterDraws, child_rng, object_words


def compliant_tick(seed: int) -> object:
    rng = child_rng(seed, "tick")
    return rng


def compliant_draws(seed: int, second: int, ids: list) -> object:
    draws = CounterDraws.at(object_words(seed, ids), np.full(len(ids), second), 64)
    return draws
