"""Experiment configuration with the paper's default parameters.

Paper Table 2 (Section 5):

========================  =============
Parameter                 Default value
========================  =============
Number of particles       64
Query window size         2 %
Number of moving objects  200
k                         3
Activation range          2 meters
========================  =============

Additional simulation parameters (Sections 3.2, 4.2, 4.4, 5.1) are
collected here as well so that every stochastic component of the system is
driven by one explicit, serializable configuration object.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace
from typing import Any, Dict


@dataclass(frozen=True)
class SimulationConfig:
    """All tunable parameters of the reproduction.

    The dataclass is frozen so configurations can be shared between modules
    without defensive copying; use :meth:`with_overrides` to derive variants
    for parameter sweeps.
    """

    # --- Table 2 defaults -------------------------------------------------
    num_particles: int = 64
    query_window_ratio: float = 0.02
    num_objects: int = 200
    k: int = 3
    activation_range: float = 2.0

    # --- object motion (Sections 3.2 and 5.1) -----------------------------
    speed_mean: float = 1.0
    speed_std: float = 0.1
    max_speed: float = 1.5
    room_exit_probability: float = 0.1
    door_entry_probability: float = 0.5
    # The paper's trace generator has no dwell: objects pick a new
    # destination immediately on arrival. Dwelling is available as an
    # extension (see `repro experiment dwell`).
    min_dwell_seconds: float = 0.0
    max_dwell_seconds: float = 0.0

    # --- RFID sensing (Sections 1, 4.1) ------------------------------------
    samples_per_second: int = 10
    detection_probability: float = 0.85
    weight_hit: float = 0.9
    weight_miss: float = 0.01

    # --- models (Sections 4.2 and 4.4) -------------------------------------
    anchor_spacing: float = 1.0
    silence_cap_seconds: float = 60.0
    num_readers: int = 19

    # --- extensions (beyond the paper; see DESIGN.md) -----------------------
    # When enabled, silent seconds also reweight: a particle inside any
    # reader's range while no reading arrived is penalized by
    # ``negative_likelihood`` (the paper's Algorithm 2 skips silent
    # seconds entirely, which is the default here).
    use_negative_information: bool = False
    negative_likelihood: float = 0.01

    # --- simulation schedule (Section 5) ------------------------------------
    warmup_seconds: int = 60
    duration_seconds: int = 300
    num_query_timestamps: int = 10
    num_range_queries: int = 20
    num_knn_queries: int = 10

    # --- metrics ------------------------------------------------------------
    kl_epsilon: float = 0.01
    topk_tolerance: float = 2.0

    # --- observability (repro.obs) ------------------------------------------
    # When True, Simulation enables the process-local metrics registry and
    # span tracer (repro.obs) for the run. Off by default: every
    # instrumented call site is a guarded no-op, and recording never
    # touches any RNG, so enabling it cannot change results.
    observability: bool = False

    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_particles < 1:
            raise ValueError("num_particles must be >= 1")
        if not 0.0 < self.query_window_ratio <= 1.0:
            raise ValueError("query_window_ratio must be in (0, 1]")
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.activation_range <= 0:
            raise ValueError("activation_range must be positive")
        if self.speed_std < 0:
            raise ValueError("speed_std must be non-negative")
        if not 0.0 <= self.detection_probability <= 1.0:
            raise ValueError("detection_probability must be in [0, 1]")
        if not 0.0 <= self.room_exit_probability <= 1.0:
            raise ValueError("room_exit_probability must be in [0, 1]")
        if not 0.0 <= self.door_entry_probability <= 1.0:
            raise ValueError("door_entry_probability must be in [0, 1]")
        if self.anchor_spacing <= 0:
            raise ValueError("anchor_spacing must be positive")
        if self.weight_hit <= self.weight_miss:
            raise ValueError("weight_hit must exceed weight_miss")
        if not 0.0 < self.negative_likelihood <= 1.0:
            raise ValueError("negative_likelihood must be in (0, 1]")
        if self.warmup_seconds < 0:
            raise ValueError("warmup_seconds must be non-negative")
        if self.duration_seconds < 0:
            raise ValueError("duration_seconds must be non-negative")

    def with_overrides(self, **overrides: Any) -> "SimulationConfig":
        """Return a copy with the given fields replaced (sweep helper)."""
        return replace(self, **overrides)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize to a plain dict (for experiment records)."""
        return asdict(self)


DEFAULT_CONFIG = SimulationConfig()
"""The paper's Table 2 defaults, shared by examples, tests, and benchmarks."""
