"""Filter-based preprocessing module (paper Section 4.4).

Receives the candidate set from the query-aware optimization module, runs
(or resumes) the configured Bayesian filter backend for each candidate,
discretizes the result onto anchor points, and fills the ``APtoObjHT``
hash table that the query evaluation module reads.

The estimator is pluggable (:mod:`repro.filters`): the module accepts a
backend name or instance and drives it purely through the
:class:`~repro.filters.base.FilterBackend` contract, so the particle
filter and the symbolic baseline both flow through this exact code
path.

The module owns the backend and its state cache: the query engine and
the tracking service both build one and read ``.backend`` / ``.cache``
from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence

import repro.obs as obs
from repro.collector.collector import EventDrivenCollector
from repro.config import SimulationConfig
from repro.core.filter import FilterRequest
from repro.core.resampling import systematic_resample
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rng import RngLike, make_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache.particle_cache import ParticleCacheManager
    from repro.filters.registry import BackendSpec


class PreprocessingModule:
    """Runs filter backends for candidate objects and builds ``APtoObjHT``."""

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers,
        config: SimulationConfig,
        use_cache: bool = True,
        resampler=systematic_resample,
        backend: "BackendSpec" = "particle",
    ):
        # Deferred: core sits below filters and cache in the layer map
        # (ARCH); both are only needed at construction time.
        from repro.cache.particle_cache import ParticleCacheManager
        from repro.filters.registry import create_backend

        self.graph = graph
        self.anchor_index = anchor_index
        self.config = config
        self.backend = create_backend(
            backend, graph, anchor_index, readers, config, resampler=resampler
        )
        # Stateless backends have nothing worth resuming; they get no
        # cache, so lookups are not wasted (and stats stay meaningful).
        self.cache: "Optional[ParticleCacheManager]" = (
            ParticleCacheManager(
                backend=self.backend.name,
                state_version=self.backend.state_version,
                decoder=self.backend.state_from_dict,
            )
            if use_cache and self.backend.cacheable
            else None
        )
        self.compiled_graph = self.backend.compiled_graph
        self.compiled_anchors = self.backend.compiled_anchors
        self.readers = self.backend.readers

    def process(
        self,
        candidates: Iterable[str],
        collector: EventDrivenCollector,
        current_second: int,
        rng: RngLike = None,
        rng_streams: Optional[Callable[[Sequence[str]], Sequence[RngLike]]] = None,
    ):
        """Filter every candidate and return a fresh ``APtoObjHT`` table.

        Objects with no reading history are skipped — the system has no
        evidence about them (they have not yet entered any reader's range).

        ``rng_streams`` (when given) is called once, with the ids to be
        filtered in order, and returns one independent generator per id
        instead of one shared ``rng`` stream threaded through every
        filter run. Per-object streams make the result independent
        of candidate *ordering and partitioning*, which is what lets the
        tracking service and the gateway's partitions
        (:mod:`repro.gateway`) produce bit-identical tables at any
        partition count.

        The module looks every candidate up in the cache, makes one
        :meth:`~repro.filters.base.FilterBackend.run_many` call for all
        of them, then stores every result; candidates are distinct.
        """
        from repro.index.hashtable import AnchorObjectTable

        filtered: List[str] = []
        generations: List[int] = []
        pending = []
        for object_id in candidates:
            history = collector.history(object_id)
            if history.is_empty:
                obs.add("preprocess.objects_skipped_no_history")
                continue
            resume = None
            generation = collector.device_generation(object_id)
            if self.cache is not None:
                resume = self.cache.lookup(object_id, generation)
            filtered.append(object_id)
            generations.append(generation)
            pending.append((history, resume))
        if rng_streams is None:
            generators = [make_rng(rng)] * len(filtered)
        else:
            generators = [make_rng(stream) for stream in rng_streams(filtered)]
        requests = [
            FilterRequest(history, generator, resume)
            for (history, resume), generator in zip(pending, generators)
        ]
        runs = self.backend.run_many(requests, current_second) if requests else []
        if self.cache is not None:
            for object_id, generation, run in zip(filtered, generations, runs):
                self.cache.store(object_id, run.state(), run.end_second, generation)
            self.cache.settle(filtered)
        table = AnchorObjectTable()
        if not runs:
            return table
        # Every run is snapped in one pass (Algorithm 2, lines 32-36).
        with obs.span("preprocess.anchor_snap", objects=len(runs)):
            distributions = self.backend.posteriors(runs)
        for object_id, distribution in zip(filtered, distributions):
            table.set_distribution(object_id, distribution)
        obs.add("preprocess.objects_filtered", len(runs))
        return table
