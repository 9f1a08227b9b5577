"""Pluggable Bayesian filter backends behind one interface.

Every location estimator in the system — the paper's SIR particle
filter and the symbolic uniform-over-reachable baseline — is a
:class:`~repro.filters.base.FilterBackend`: ``run_many`` turns a tick's
:class:`~repro.filters.base.FilterRequest` list into plain
:class:`~repro.filters.base.FilterRun` records, and ``posteriors``
snaps those runs to anchor distributions. Engines, executors, and the
CLI resolve backends by name (``--filter {particle, symbolic}``)
through :func:`~repro.filters.registry.create_backend` and otherwise
never special-case an estimator.
"""

from repro.filters.base import (
    FilterBackend,
    FilterRequest,
    FilterRun,
    FilterState,
)
from repro.filters.particle import ParticleBackend
from repro.filters.registry import (
    BACKENDS,
    BackendSpec,
    available_backends,
    create_backend,
)
from repro.filters.symbolic import SymbolicBackend, SymbolicState

DEFAULT_BACKEND = ParticleBackend.name
"""The paper's estimator: what every entry point uses unless told otherwise."""

__all__ = [
    "FilterBackend",
    "FilterRequest",
    "FilterRun",
    "FilterState",
    "BACKENDS",
    "BackendSpec",
    "available_backends",
    "create_backend",
    "ParticleBackend",
    "SymbolicBackend",
    "SymbolicState",
    "DEFAULT_BACKEND",
]
