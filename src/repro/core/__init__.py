"""Particle filter-based location inference (paper Sections 3.1, 3.2, 4.4).

This is the paper's primary contribution: a Sampling Importance Resampling
(SIR) particle filter whose state space is the indoor walking graph. The
package provides:

* :class:`ParticleSet` — vectorized particle state (edge, offset,
  direction, speed, dwelling flag, weight);
* :class:`CompiledGraph` — flat numpy views of the walking graph for fast
  stepping and point conversion;
* :class:`GraphMotionModel` — the object motion model (constant Gaussian
  speeds, random turns at intersections, room dwell/exit);
* :class:`DeviceSensingModel` — the measurement model (high weight inside
  the observed reader's range, low elsewhere);
* resampling algorithms (paper Algorithm 1 plus alternatives);
* :class:`ParticleFilter` — paper Algorithm 2;
* :func:`particles_to_anchor_distribution` — anchor-point discretization;
* :class:`PreprocessingModule` — the particle filter-based preprocessing
  module that fills the ``APtoObjHT`` table for candidate objects;
* :class:`FilterExecutor` — a preprocessing module with the seed that
  keys every draw by ``(seed, object, stepped second)``: the one filter-tick path of the
  query engine, the tracking service and the gateway workers.
"""

from repro.core.compiled import CompiledAnchors, CompiledGraph
from repro.core.particles import ParticleSet
from repro.core.motion import GraphMotionModel
from repro.core.sensing import DeviceSensingModel
from repro.core.resampling import (
    effective_sample_size,
    multinomial_resample,
    residual_resample,
    stratified_resample,
    systematic_resample,
)
from repro.core.filter import FilterResult, ParticleFilter
from repro.core.discretize import particles_to_anchor_distribution
from repro.core.preprocessing import FilterExecutor, PreprocessingModule

__all__ = [
    "CompiledGraph",
    "CompiledAnchors",
    "ParticleSet",
    "GraphMotionModel",
    "DeviceSensingModel",
    "systematic_resample",
    "multinomial_resample",
    "stratified_resample",
    "residual_resample",
    "effective_sample_size",
    "ParticleFilter",
    "FilterResult",
    "particles_to_anchor_distribution",
    "PreprocessingModule",
    "FilterExecutor",
]
