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

The module owns the backend and its state cache. :class:`FilterExecutor`
wraps one with the system's filter seed; the query
engine, the tracking service and every gateway worker filter through an
executor and read ``.preprocessing`` / ``.filter_backend`` / ``.cache``
from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence

import repro.obs as obs
from repro.collector.collector import EventDrivenCollector
from repro.config import SimulationConfig
from repro.core.filter import FilterRequest
from repro.core.resampling import systematic_resample
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.index.hashtable import AnchorObjectTable

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

        self.backend = create_backend(
            backend, graph, anchor_index, readers, config, resampler=resampler
        )
        # Stateless backends have nothing worth resuming; they get no
        # cache, so lookups are not wasted (and stats stay meaningful).
        self.cache: "Optional[ParticleCacheManager]" = (
            ParticleCacheManager() if use_cache and self.backend.cacheable else None
        )

    def process(
        self,
        candidates: Iterable[str],
        collector: EventDrivenCollector,
        current_second: int,
        seed: Optional[int] = None,
    ) -> AnchorObjectTable:
        """Filter every candidate and return a fresh ``APtoObjHT`` table.

        Objects with no reading history are skipped — the system has no
        evidence about them (they have not yet entered any reader's range).

        Every draw is keyed by ``seed`` (default: the config's), the
        object and the second being stepped (:class:`repro.rng.
        CounterDraws`). Keyed draws make the result independent of
        candidate *ordering and partitioning*, which is what lets the
        tracking service and the gateway's partitions
        (:mod:`repro.gateway`) produce bit-identical tables at any
        partition count, and a cached resume equal to stepping tick by
        tick.

        The module looks every candidate up in the cache, makes one
        :meth:`~repro.filters.base.FilterBackend.run_many` call for all
        of them, then stores every result; candidates are distinct.
        """
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
        requests = [FilterRequest(history, resume) for history, resume in pending]
        runs = self.backend.run_many(requests, current_second, seed) if requests else []
        if self.cache is not None:
            for object_id, generation, run in zip(filtered, generations, runs):
                self.cache.store(object_id, run.state, run.end_second, generation)
            self.cache.settle(filtered)
        if not runs:
            return AnchorObjectTable()
        # Every run is snapped in one pass (Algorithm 2, lines 32-36).
        with obs.span("preprocess.anchor_snap", objects=len(runs)):
            distributions = self.backend.posteriors(runs)
        table = AnchorObjectTable.from_distributions(zip(filtered, distributions))
        obs.add("preprocess.objects_filtered", len(runs))
        return table


class FilterExecutor:
    """The per-object filter step of one tick (paper Section 4.4).

    Owns the :class:`PreprocessingModule` that holds the filter backend
    and its state cache, and the seed every draw is keyed by. An
    object's draws depend only on ``(seed, object, stepped second)``, so
    a table does not depend on which other objects share the call — the
    property that makes a gateway partition's slice bit-identical to the
    same objects tracked in one process, and that lets every candidate
    of an on-demand query step in one lockstep stack.
    """

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers,
        config: SimulationConfig,
        use_cache: bool = True,
        seed: Optional[int] = None,
        filter_backend: "BackendSpec" = "particle",
        resampler=systematic_resample,
    ) -> None:
        self.seed = seed if seed is not None else config.seed
        self.preprocessing = PreprocessingModule(
            graph, anchor_index, readers, config,
            use_cache=use_cache, resampler=resampler, backend=filter_backend,
        )
        self.filter_backend = self.preprocessing.backend
        self.cache = self.preprocessing.cache

    def build_table(
        self, candidates: Sequence[str], collector: EventDrivenCollector, second: int
    ) -> AnchorObjectTable:
        """Filter every candidate, in the given order, into a fresh table."""
        return self.preprocessing.process(candidates, collector, second, self.seed)
