"""The filter backends by name.

Everything that needs an estimator — the query engine, the tracking
service, the CLI's ``--filter`` flag — resolves it by name here, so
adding a backend is one new module plus one entry in :data:`BACKENDS`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple, Type, Union

from repro.config import SimulationConfig
from repro.filters.base import FilterBackend
from repro.filters.particle import ParticleBackend
from repro.filters.symbolic import SymbolicBackend
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader

#: What callers may pass wherever a backend is accepted: a backend name
#: or an already-constructed backend instance (passed through untouched).
BackendSpec = Union[str, FilterBackend]

#: Every backend class under its ``--filter`` name.
BACKENDS: Dict[str, Type[FilterBackend]] = {
    "particle": ParticleBackend,
    "symbolic": SymbolicBackend,
}


def create_backend(
    spec: BackendSpec,
    graph: WalkingGraph,
    anchor_index: AnchorIndex,
    readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
    config: SimulationConfig,
    resampler: object = None,
) -> FilterBackend:
    """Build the backend named ``spec`` for one deployment; an instance passes through."""
    if isinstance(spec, FilterBackend):
        return spec
    backend_cls = BACKENDS.get(spec)
    if backend_cls is None:
        raise ValueError(
            f"unknown filter backend {spec!r}; "
            f"registered backends: {', '.join(available_backends())}"
        )
    return backend_cls(graph, anchor_index, readers, config, resampler=resampler)


def available_backends() -> Tuple[str, ...]:
    """Names of all backends, sorted (CLI choices, docs, tests)."""
    return tuple(sorted(BACKENDS))
