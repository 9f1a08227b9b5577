"""Tests for the simulation configuration."""

import pytest

from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.rng import child_rng, child_seed, make_rng


class TestConfig:
    def test_paper_table2_defaults(self):
        assert DEFAULT_CONFIG.num_particles == 64
        assert DEFAULT_CONFIG.query_window_ratio == 0.02
        assert DEFAULT_CONFIG.num_objects == 200
        assert DEFAULT_CONFIG.k == 3
        assert DEFAULT_CONFIG.activation_range == 2.0
        assert DEFAULT_CONFIG.num_readers == 19

    def test_paper_motion_defaults(self):
        assert DEFAULT_CONFIG.speed_mean == 1.0
        assert DEFAULT_CONFIG.speed_std == 0.1
        assert DEFAULT_CONFIG.room_exit_probability == 0.1
        assert DEFAULT_CONFIG.anchor_spacing == 1.0
        assert DEFAULT_CONFIG.silence_cap_seconds == 60.0

    def test_with_overrides(self):
        config = DEFAULT_CONFIG.with_overrides(k=5, num_particles=128)
        assert config.k == 5
        assert config.num_particles == 128
        assert config.num_objects == DEFAULT_CONFIG.num_objects
        # Original untouched (frozen dataclass).
        assert DEFAULT_CONFIG.k == 3

    def test_to_dict_roundtrip(self):
        data = DEFAULT_CONFIG.to_dict()
        clone = SimulationConfig(**data)
        assert clone == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_particles", 0),
            ("query_window_ratio", 0.0),
            ("query_window_ratio", 1.5),
            ("num_objects", 0),
            ("k", 0),
            ("activation_range", -1.0),
            ("speed_std", -0.1),
            ("detection_probability", 1.2),
            ("room_exit_probability", -0.2),
            ("door_entry_probability", 2.0),
            ("anchor_spacing", 0.0),
            ("warmup_seconds", -1),
            ("duration_seconds", -5),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_overrides(**{field: value})

    def test_weight_ordering_enforced(self):
        with pytest.raises(ValueError):
            DEFAULT_CONFIG.with_overrides(weight_hit=0.01, weight_miss=0.9)


class TestRngHelpers:
    def test_make_rng_accepts_generator(self):
        gen = make_rng(5)
        assert make_rng(gen) is gen

    def test_child_seed_deterministic(self):
        assert child_seed(7, "trace") == child_seed(7, "trace")
        assert child_seed(7, "trace") != child_seed(7, "readings")
        assert child_seed(7, "trace") != child_seed(8, "trace")

    def test_child_rng_streams_independent(self):
        a = child_rng(7, "a").random(5)
        b = child_rng(7, "b").random(5)
        assert not (a == b).all()
