"""Pluggable Bayesian filter backends behind one interface.

Every location estimator in the system — the paper's SIR particle
filter and the symbolic uniform-over-reachable baseline — implements the
:class:`~repro.filters.base.BayesFilter` /
:class:`~repro.filters.base.FilterBackend` contract and registers itself
with the :data:`~repro.filters.registry.FACTORY`. Engines, executors,
and the CLI resolve backends by name (``--filter {particle, symbolic}``)
and otherwise never special-case an estimator.

Importing this package imports all built-in backend modules, which
populates the registry as a side effect.
"""

from repro.filters.base import (
    BayesFilter,
    FilterBackend,
    FilterRequest,
    FilterRun,
    FilterState,
    FilterStateError,
    ResumeState,
)
from repro.filters.registry import (
    FACTORY,
    BackendSpec,
    FilterFactory,
    available_backends,
    create_backend,
    register_backend,
)

# Import the built-in backends for their registration side effect.
from repro.filters.particle import ParticleBackend, ParticleBayesFilter
from repro.filters.symbolic import (
    SymbolicBackend,
    SymbolicBayesFilter,
    SymbolicState,
)

DEFAULT_BACKEND = ParticleBackend.name
"""The paper's estimator: what every entry point uses unless told otherwise."""

__all__ = [
    "BayesFilter",
    "FilterBackend",
    "FilterRequest",
    "FilterRun",
    "FilterState",
    "FilterStateError",
    "ResumeState",
    "FACTORY",
    "BackendSpec",
    "FilterFactory",
    "available_backends",
    "create_backend",
    "register_backend",
    "ParticleBackend",
    "ParticleBayesFilter",
    "SymbolicBackend",
    "SymbolicBayesFilter",
    "SymbolicState",
    "DEFAULT_BACKEND",
]
