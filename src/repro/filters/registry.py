"""The filter backend registry (``FilterFactory``).

Backends self-register at import time via the :func:`register_backend`
class decorator; everything that needs an estimator — the query engine,
the tracking service, the CLI's ``--filter`` flag — resolves it by name
through one shared factory, so adding a backend is one new module plus
one decorator.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Mapping, Tuple, Type, TypeVar, Union

from repro.config import SimulationConfig
from repro.filters.base import FilterBackend
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader

B = TypeVar("B", bound=Type[FilterBackend])

#: What callers may pass wherever a backend is accepted: a registry name
#: or an already-constructed backend instance (passed through untouched).
BackendSpec = Union[str, FilterBackend]


class FilterFactory:
    """Name-to-class registry of :class:`FilterBackend` implementations."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._backends: Dict[str, Type[FilterBackend]] = {}

    def register(self, backend_cls: B) -> B:
        """Class decorator: add ``backend_cls`` under its ``name``."""
        name = backend_cls.name
        with self._lock:
            existing = self._backends.get(name)
            if existing is not None and existing is not backend_cls:
                raise ValueError(
                    f"filter backend name {name!r} is already registered "
                    f"by {existing.__qualname__}"
                )
            self._backends[name] = backend_cls
        return backend_cls

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, sorted."""
        with self._lock:
            return tuple(sorted(self._backends))

    def backend_class(self, name: str) -> Type[FilterBackend]:
        """The backend class registered under ``name``."""
        with self._lock:
            backend_cls = self._backends.get(name)
        if backend_cls is None:
            raise ValueError(
                f"unknown filter backend {name!r}; "
                f"registered backends: {', '.join(self.names()) or '(none)'}"
            )
        return backend_cls

    def state_version_of(self, name: str) -> int:
        """The current state version of the backend named ``name``."""
        return self.backend_class(name).state_version

    def create(
        self,
        spec: BackendSpec,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> FilterBackend:
        """Build (or pass through) a backend for one deployment."""
        if isinstance(spec, FilterBackend):
            return spec
        backend_cls = self.backend_class(spec)
        return backend_cls(
            graph, anchor_index, readers, config, resampler=resampler
        )


#: The process-wide factory every component resolves backends through.
FACTORY = FilterFactory()

register_backend = FACTORY.register


def create_backend(
    spec: BackendSpec,
    graph: WalkingGraph,
    anchor_index: AnchorIndex,
    readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
    config: SimulationConfig,
    resampler: object = None,
) -> FilterBackend:
    """Module-level convenience for :meth:`FilterFactory.create`."""
    return FACTORY.create(
        spec, graph, anchor_index, readers, config, resampler=resampler
    )


def available_backends() -> Tuple[str, ...]:
    """Names of all registered backends (CLI choices, docs, tests)."""
    return FACTORY.names()
