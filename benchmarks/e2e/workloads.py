"""The four end-to-end workloads and the measurement loop they share.

Load model: one client in one process and one thread drives the system in
a closed loop. Readers emit at a fixed 1 Hz, so the system keeps up if
and only if the service time of one simulated second (a *tick*) stays
under 1 s; replaying the seconds back to back measures that service time
without waiting out real seconds. The SLO, checked on the measured (not
rescaled) tick times, is a 90th-percentile tick under 1000 ms.

The workload seed drives the object traces, the readings and every query
window and point (through :mod:`repro.sim`, used only as the load
generator). The system's own filter seed stays at the config default.
Generating load, checking answers and scoring accuracy happen outside
every timed region, and warm-up seconds run but are not sampled.

Each measured *unit* is one simulated second. A run builds the system
several times (the median build time is ``setup_s``), warms it up, then
measures units until ``seconds`` of wall time have passed. The answer
digest and the accuracy scores cover a fixed prefix of units, so the same
seed gives the same digest and accuracy on any machine.

A traced run makes two passes over the same inputs: an untraced pass for
half the time budget, then a pass with :class:`~spans.Tracer` wrappers
over exactly as many units. Their digests must be equal (the wrappers are
inert), and their time ratio is the tracing overhead.

Timings are reported at a reference machine speed. Shared machines change
speed for seconds at a time (on the 2-core VM these numbers come from, a
fixed Python loop alternates between two speeds 35% apart), which no run
of a few tens of seconds averages out. So a fixed calibration kernel that
uses no ``repro`` code runs before every measured unit and around every
build, and each measured time is scaled by ``REFERENCE_KERNEL_S`` over the
kernel time measured next to it. The unscaled values stay in the detail
document as ``raw``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

import repro.filters.particle as particle_module
import repro.gateway.coordinator as coordinator_module
import repro.queries.engine as engine_module
import repro.service.checkpoint as checkpoint_module
import repro.service.tracking as tracking_module
from repro.config import DEFAULT_CONFIG
from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
from repro.geometry import Point, Rect
from repro.graph.location import GraphLocation
from repro.queries import IndoorQueryEngine, KNNQuery, RangeQuery
from repro.rng import child_rng, child_seed
from repro.service import ReadingBatch, TrackingService
from repro.sim import (
    Simulation,
    knn_hit_rate,
    range_query_kl,
    true_knn_result,
    true_range_result,
)

from spans import ROOT_PREFIX, Tracer

#: Builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Readers report at 1 Hz, so a tick must be served within a second.
SLO_TICK_P90_MS = 1000.0

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "tick_p50_ms": "ms",
    "tick_p75_ms": "ms",
    "updates_per_s": "1/s",
    "queries_per_s": "1/s",
    "range_kl": "nats",
    "knn_hit_rate": "ratio",
    "peak_rss_mb": "MB",
}

#: Spans whose self time is reported, in ms per measured tick.
LAYER_SPANS: Tuple[str, ...] = (
    "collector.ingest",
    "pruning.candidates",
    "cache.lookup",
    "cache.store",
    "preprocess.loop",
    "filter.run",
    "filter.init",
    "filter.init_scan",
    "filter.predict",
    "filter.observe",
    "filter.weight",
    "filter.resample",
    "snap.posterior",
    "snap.nearest",
    "query.range",
    "query.knn",
    "sessions.publish",
    "analytics.observe",
    "checkpoint.save",
    "gateway.submit",
    "gateway.collect",
)

#: Call-count metrics: metric -> span counted, per measured tick.
CALL_COUNTS: Dict[str, str] = {
    "filter.runs": "filter.run",
    "filter.init_calls": "filter.init",
    "filter.predict_calls": "filter.predict",
    "query.range_calls": "query.range",
    "query.knn_calls": "query.knn",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = {
    **{f"{span}_ms": "ms/tick" for span in LAYER_SPANS},
    **{name: "count/tick" for name in CALL_COUNTS},
    "filter.depletion_reseeds": "count/tick",
    "collector.readings": "count/tick",
    "pruning.candidate_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "cache.invalidations": "count/tick",
    "sessions.deltas": "count/tick",
    "checkpoint.bytes": "bytes",
    "gateway.barrier_wait_ms": "ms/tick",
    "gateway.merge_ms": "ms/tick",
    "gateway.straggler_ratio": "ratio",
    "gateway.missing_partitions": "count/tick",
    "trace.coverage": "ratio",
    "trace.overhead_ratio": "ratio",
}

_clock = time.perf_counter

#: Calibration kernel time that defines the reference machine speed.
REFERENCE_KERNEL_S = 0.002

_KERNEL_INPUT = np.linspace(0.0, 1.0, 64)


def _kernel_once() -> float:
    start = _clock()
    x = _KERNEL_INPUT.copy()
    for _ in range(500):
        x = np.sqrt(x * 1.0001 + 0.25)
    totals: Dict[int, int] = {}
    for i in range(7000):
        totals[i % 13] = totals.get(i % 13, 0) + (i * i) % 7
    return _clock() - start


def calibration_kernel(every_cpu: bool = False) -> float:
    """Seconds one fixed kernel takes right now (about 2 ms here).

    The kernel mixes what the system spends its time on: small-array
    numpy arithmetic, and interpreted integer arithmetic and dict
    updates. With ``every_cpu`` it runs once pinned to each CPU this
    process may use and returns the slowest time. That is the speed that
    limits work spread over every CPU, such as a gateway tick waiting
    for all its worker processes.
    """
    if not every_cpu:
        return _kernel_once()
    cpus = os.sched_getaffinity(0)
    try:
        times = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            times.append(_kernel_once())
    finally:
        os.sched_setaffinity(0, cpus)
    return max(times)


def _speed_scale(kernels: List[float]) -> float:
    """Reference over measured kernel time: scales a time to reference speed."""
    return REFERENCE_KERNEL_S / float(np.median(kernels))


# ----------------------------------------------------------------------
# load generation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Query:
    """One ad-hoc query input: a range window or a kNN point with k."""

    kind: str  # "range" | "knn"
    window: Optional[Rect] = None
    point: Optional[Point] = None
    k: int = 3


@dataclass(frozen=True)
class Second:
    """One simulated second of load, with the ground truth at its end."""

    batch: ReadingBatch
    positions: Dict[str, Point]
    locations: Dict[str, GraphLocation]
    queries: Tuple[Query, ...]


class Load:
    """Seeded load for one world, generated lazily and kept for replay.

    ``make_queries(load)`` draws each second's ad-hoc queries right after
    the second is simulated, so query inputs depend only on the seed.
    ``by_tag`` keys the ground truth by tag id, for systems that register
    unknown tags under their own id.
    """

    def __init__(
        self,
        seed: int,
        objects: int,
        make_queries: Callable[["Load"], List[Query]],
        by_tag: bool,
        plan: Any = None,
        readers: Any = None,
    ) -> None:
        config = DEFAULT_CONFIG.with_overrides(seed=seed, num_objects=objects)
        self.sim = Simulation(config, plan=plan, readers=readers, build_symbolic=False)
        self.rng = child_rng(seed, "e2e-queries")
        self._make_queries = make_queries
        tags = self.sim.trace.tag_to_object()
        self._key = {obj: tag for tag, obj in tags.items()} if by_tag else {}
        self._seconds: List[Second] = []

    def __getitem__(self, index: int) -> Second:
        while len(self._seconds) <= index:
            readings = self.sim.step()
            key = self._key
            self._seconds.append(
                Second(
                    batch=ReadingBatch(second=self.sim.now, readings=tuple(readings)),
                    positions={key.get(o, o): p for o, p in self.sim.true_positions().items()},
                    locations={key.get(o, o): p for o, p in self.sim.true_locations().items()},
                    queries=tuple(self._make_queries(self)),
                )
            )
        return self._seconds[index]

    def window(self, low: float = 0.02, high: float = 0.02) -> Rect:
        """A random square window covering ``low``..``high`` of the plan.

        A fixed ratio draws nothing from ``rng``.
        """
        ratio = low if low == high else float(self.rng.uniform(low, high))
        return self.sim.random_window(ratio)

    def probes(self, count: int) -> List[Query]:
        """``count`` range queries (2% windows) and ``count`` 3NN queries."""
        queries = [Query("range", window=self.window()) for _ in range(count)]
        queries += [
            Query("knn", point=self.sim.random_query_point(), k=3) for _ in range(count)
        ]
        return queries


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def _rounded(mapping: Dict[Any, float]) -> List[List[Any]]:
    return [[key, round(value, 9)] for key, value in sorted(mapping.items())]


class Recorder:
    """Everything one measured pass observes: timings, answers, checks."""

    def __init__(
        self,
        tracer: Optional[Tracer],
        digest_units: int,
        accuracy_units: int,
        anchor_ids: Set[int],
        every_cpu: bool = False,
    ) -> None:
        self.tracer = tracer
        self.every_cpu = every_cpu
        self.digest_units = digest_units
        self.accuracy_units = accuracy_units
        self.anchor_ids = anchor_ids
        self.unit = 0
        #: Calibration kernel time before unit i, plus one after the last.
        self.kernels: List[float] = []
        #: Raw (unit, seconds) samples.
        self.ticks: List[Tuple[int, float]] = []
        self.queries: List[Tuple[int, str, float]] = []
        #: Raw seconds per unit: every timed op, and the write path only.
        self.unit_ops: List[float] = []
        self.unit_write: List[float] = []
        self.updates = 0
        self.attempted = 0
        self.failed = 0
        self.kl: List[float] = []
        self.hits: List[float] = []
        self.counters: Dict[str, float] = {}
        self.problems: List[str] = []
        self._digest = hashlib.sha256()

    def begin_unit(self, index: int) -> None:
        self.kernels.append(calibration_kernel(self.every_cpu))
        self.unit = index
        self.unit_ops.append(0.0)
        self.unit_write.append(0.0)

    def end(self) -> None:
        self.kernels.append(calibration_kernel(self.every_cpu))
        self.unit = len(self.unit_ops)

    def unit_scales(self) -> List[float]:
        """Per-unit speed scale, from the kernels just before and after it."""
        kernels = self.kernels
        return [_speed_scale(kernels[max(0, u - 1):u + 3]) for u in range(len(self.unit_ops))]

    def timed(self, kind: str, trace_id: str, fn: Callable[..., Any],
              *args: Any) -> Tuple[Any, float]:
        """Call ``fn`` as one timed operation (a root span when traced)."""
        self.attempted += 1
        tracer = self.tracer
        start = _clock()
        try:
            if tracer is None:
                result = fn(*args)
            else:
                with tracer.root(kind, trace_id):
                    result = fn(*args)
        except Exception:
            self.failed += 1
            raise
        elapsed = _clock() - start
        self.unit_ops[self.unit] += elapsed
        return result, elapsed

    def tick(self, seconds: float, updates: int) -> None:
        self.ticks.append((self.unit, seconds))
        self.unit_write[self.unit] += seconds
        self.updates += updates

    def query(self, kind: str, seconds: float) -> None:
        self.queries.append((self.unit, kind, seconds))

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    @property
    def digest(self) -> str:
        return "sha256:" + self._digest.hexdigest()

    def answer(self, *row: Any) -> None:
        """Feed one canonical answer row into the digest (prefix units only)."""
        if self.unit < self.digest_units:
            self._digest.update(json.dumps(row, separators=(",", ":")).encode())
            self._digest.update(b"\n")

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_table(self, table: Any, label: str) -> None:
        """Every distribution sums to 1 +- 1e-6 over valid anchor ids."""
        for object_id in table.objects():
            distribution = table.distribution_of(object_id)
            total = math.fsum(distribution.values())
            if abs(total - 1.0) > 1e-6:
                self.problem(f"{label}: {object_id} distribution sums to {total!r}")
            elif not self.anchor_ids.issuperset(distribution):
                self.problem(f"{label}: {object_id} has mass on unknown anchor ids")

    def score_range(self, probabilities: Dict[str, float], window: Rect,
                    truth: Second, universe: Set[str]) -> None:
        if self.unit >= self.accuracy_units:
            return
        known = {o: p for o, p in truth.positions.items() if o in universe}
        # A sorted list rather than the set, so the float sum runs in the
        # same order in every process (string hashing is randomized).
        truth_in_order = sorted(true_range_result(window, known))
        kl = range_query_kl(truth_in_order, probabilities, universe,
                            epsilon=DEFAULT_CONFIG.kl_epsilon)
        if kl is not None:
            self.kl.append(kl)

    def score_knn(self, returned: List[str], query: Query, truth: Second,
                  universe: Set[str], graph: Any) -> None:
        if self.unit >= self.accuracy_units:
            return
        known = {o: loc for o, loc in truth.locations.items() if o in universe}
        if known:
            assert query.point is not None
            expected = true_knn_result(query.point, known, graph, query.k)
            self.hits.append(knn_hit_rate(returned, expected))


def _answer_query(rec: Recorder, query: Query, result: Any, truth: Second,
                  universe: Set[str], graph: Any, score: bool = True) -> None:
    rec.answer(query.kind, _rounded(result.probabilities))
    if not score:
        return
    if query.kind == "range":
        assert query.window is not None
        rec.score_range(result.probabilities, query.window, truth, universe)
    else:
        rec.score_knn(result.objects(), query, truth, universe, graph)


def _publish_rows(rec: Recorder, table: Any, deltas: List[Any]) -> None:
    """Digest a published table and its session deltas (prefix units only)."""
    if rec.unit >= rec.digest_units:
        return
    for object_id in sorted(table.objects()):
        rec.answer(object_id, _rounded(table.distribution_of(object_id)))
    for delta in deltas:
        rec.answer(delta.query_id, delta.second, _rounded(delta.entered),
                   sorted(delta.left), _rounded(delta.updated))


def _trace_filter(tracer: Tracer, preprocessing: Any) -> None:
    """Wrap the preprocessing loop, cache, particle filter and anchor snap."""
    tracer.wrap(preprocessing, "process", "preprocess.loop")
    if preprocessing.cache is not None:
        tracer.wrap(preprocessing.cache, "lookup", "cache.lookup")
        tracer.wrap(preprocessing.cache, "store", "cache.store")
    backend = preprocessing.backend
    pf = backend.filter
    tracer.wrap(pf, "run", "filter.run")
    tracer.wrap(pf, "initialize", "filter.init")
    # ``run`` reaches initialization through this alias while it exists.
    tracer.wrap(pf, "_initialize", "filter.init", optional=True)
    tracer.wrap(pf, "predict", "filter.predict")
    tracer.wrap(pf, "observe", "filter.observe")
    tracer.wrap(pf, "resampler", "filter.resample")
    tracer.wrap(pf.sensing, "reweight", "filter.weight")
    tracer.wrap(pf.motion, "positions_in_circle", "filter.init_scan")
    tracer.wrap(backend.compiled_anchors, "nearest", "snap.nearest")
    tracer.wrap(particle_module, "particles_to_anchor_distribution", "snap.posterior")


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One scenario: how to build, warm up, measure and trace a system."""

    digest_units = 10
    accuracy_units = 40
    #: Whether the timed work runs on every CPU (worker processes).
    every_cpu = False

    def build(self) -> Any:
        raise NotImplementedError

    def close(self, system: Any) -> None:
        """Release what :meth:`build` started (nothing by default)."""

    def warm_up(self, system: Any) -> None:
        raise NotImplementedError

    def unit(self, system: Any, index: int, rec: Recorder) -> None:
        raise NotImplementedError

    def trace(self, tracer: Tracer, system: Any) -> None:
        raise NotImplementedError

    def anchor_ids(self, system: Any) -> Set[int]:
        return {anchor.ap_id for anchor in system.anchor_index.anchors}

    def caches(self, system: Any) -> List[Any]:
        return []

    def finish(self) -> None:
        """Remove temporary files the run wrote (nothing by default)."""


class ServiceWorkload(Workload):
    """A ``TrackingService`` fed one second per tick, with ad-hoc queries."""

    def __init__(self, load: Load, warmup: int, digest_units: int,
                 accuracy_units: int) -> None:
        self.load = load
        self.warmup = warmup
        self.digest_units = digest_units
        self.accuracy_units = accuracy_units

    def close(self, system: TrackingService) -> None:
        system.close()

    def warm_up(self, system: TrackingService) -> None:
        for index in range(self.warmup):
            system.process_batch(self.load[index].batch)

    def caches(self, system: TrackingService) -> List[Any]:
        cache = system.executor.preprocessing.cache
        return [] if cache is None else [cache]

    def trace(self, tracer: Tracer, system: TrackingService) -> None:
        tracer.wrap(system.collector, "ingest_second", "collector.ingest")
        _trace_filter(tracer, system.executor.preprocessing)
        tracer.wrap(system.sessions, "publish", "sessions.publish")
        tracer.wrap(tracking_module, "evaluate_range_query", "query.range")
        tracer.wrap(tracking_module, "evaluate_knn_query", "query.knn")

    def serve_second(self, system: TrackingService, second: Second, rec: Recorder,
                     scored: int) -> None:
        """One tick, then the second's ad-hoc queries (the first ``scored`` scored)."""
        now = second.batch.second
        deltas, elapsed = rec.timed("tick", f"t{now}", system.process_batch, second.batch)
        table = system.snapshot().table
        rec.tick(elapsed, len(table.objects()))
        rec.count("collector.readings", len(second.batch.readings))
        rec.count("sessions.deltas", sum(1 for d in deltas if not d.is_empty))
        rec.check_table(table, f"t{now}")
        _publish_rows(rec, table, deltas)
        universe = set(table.objects())
        for n, query in enumerate(second.queries):
            result, elapsed = rec.timed(query.kind, f"q{now}.{n}", _service_query, system, query)
            rec.query(query.kind, elapsed)
            _answer_query(rec, query, result, second, universe, system.graph,
                          score=n < scored)


def _service_query(service: TrackingService, query: Query) -> Any:
    if query.kind == "range":
        return service.query_range(query.window)
    return service.query_knn(query.point, query.k)


class LiveTracking(ServiceWorkload):
    """TrackingService at Table 2 scale: the paper's write path."""

    def __init__(self, seed: int, objects: int = 200, warmup: int = 10,
                 probes: int = 5, checkpoint_every: int = 25,
                 digest_units: int = 10, accuracy_units: int = 40) -> None:
        super().__init__(Load(seed, objects, lambda load: load.probes(probes), by_tag=True),
                         warmup, digest_units, accuracy_units)
        self.checkpoint_every = checkpoint_every
        self.sessions = (self.load.window(), self.load.sim.random_query_point())
        self.workdir = ""

    def build(self) -> TrackingService:
        service = TrackingService(DEFAULT_CONFIG)
        service.enable_analytics()
        window, point = self.sessions
        service.sessions.subscribe_range(window, session_id="range-0")
        service.sessions.subscribe_knn(point, 3, session_id="knn-0")
        return service

    def trace(self, tracer: Tracer, system: TrackingService) -> None:
        super().trace(tracer, system)
        tracer.wrap(system.analytics, "observe_snapshot", "analytics.observe")
        tracer.wrap(checkpoint_module, "save_checkpoint", "checkpoint.save")

    def unit(self, system: TrackingService, index: int, rec: Recorder) -> None:
        second = self.load[self.warmup + index]
        self.serve_second(system, second, rec, scored=len(second.queries))
        if (index + 1) % self.checkpoint_every == 0:
            if not self.workdir:
                self.workdir = tempfile.mkdtemp(prefix="ckpt-", dir=_work_dir())
            path = os.path.join(self.workdir, "service.json")
            _, elapsed = rec.timed("checkpoint", f"c{second.batch.second}",
                                   checkpoint_module.save_checkpoint, system, path)
            rec.unit_write[rec.unit] += elapsed
            rec.count("checkpoint.saves")
            rec.count("checkpoint.bytes", os.path.getsize(path))

    def finish(self) -> None:
        if self.workdir:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = ""


class OnDemandSystem:
    """An IndoorQueryEngine plus the filter generator it is driven with."""

    def __init__(self, engine: IndoorQueryEngine) -> None:
        self.engine = engine
        self.anchor_index = engine.anchor_index
        self.rng = child_rng(DEFAULT_CONFIG.seed, "pf")

    def evaluate(self, query: Query, now: int) -> Any:
        """Answer one ad-hoc query at ``now`` (what ``range_query`` does)."""
        engine = self.engine
        engine.clear_queries()
        if query.kind == "range":
            engine.register_range_query(RangeQuery("adhoc-range", query.window))
        else:
            engine.register_knn_query(KNNQuery("adhoc-knn", query.point, query.k))
        return engine.evaluate(now, rng=self.rng)


class OnDemandQueries(Workload):
    """IndoorQueryEngine with pruning and cache: the query-aware path."""


    def __init__(self, seed: int, objects: int = 200, warmup: int = 60,
                 query_warmup: int = 10, digest_units: int = 10,
                 accuracy_units: int = 50) -> None:
        self.warmup = warmup
        self.query_warmup = query_warmup
        self.digest_units = digest_units
        self.accuracy_units = accuracy_units
        self.load = Load(seed, objects, lambda load: load.probes(1), by_tag=False)

    def build(self) -> OnDemandSystem:
        sim = self.load.sim
        return OnDemandSystem(
            IndoorQueryEngine(
                sim.plan, sim.readers, sim.trace.tag_to_object(), config=DEFAULT_CONFIG,
                use_cache=True, use_pruning=True,
            )
        )

    def warm_up(self, system: OnDemandSystem) -> None:
        """Collector-only seconds, then query seconds that fill the cache."""
        for index in range(self.warmup):
            batch = self.load[index].batch
            system.engine.ingest_second(batch.second, batch.readings)
        unsampled = Recorder(None, 0, 0, self.anchor_ids(system))
        for index in range(self.query_warmup):
            unsampled.begin_unit(index)
            self._second(system, self.load[self.warmup + index], unsampled)

    def caches(self, system: OnDemandSystem) -> List[Any]:
        return [] if system.engine.cache is None else [system.engine.cache]

    def trace(self, tracer: Tracer, system: OnDemandSystem) -> None:
        engine = system.engine
        tracer.wrap(engine.collector, "ingest_second", "collector.ingest")
        tracer.wrap(engine.optimizer, "candidates", "pruning.candidates")
        _trace_filter(tracer, engine.preprocessing)
        tracer.wrap(engine_module, "evaluate_range_query", "query.range")
        tracer.wrap(engine_module, "evaluate_knn_query", "query.knn")

    def unit(self, system: OnDemandSystem, index: int, rec: Recorder) -> None:
        self._second(system, self.load[self.warmup + self.query_warmup + index], rec)

    def _second(self, system: OnDemandSystem, second: Second, rec: Recorder) -> None:
        """Ingest one second, then answer its range and kNN query."""
        batch = second.batch
        now = batch.second
        _, tick = rec.timed("ingest", f"t{now}", system.engine.ingest_second, now, batch.readings)
        rec.count("collector.readings", len(batch.readings))
        universe = set(system.engine.collector.observed_objects())
        updates = 0
        for n, query in enumerate(second.queries):
            snapshot, elapsed = rec.timed(query.kind, f"q{now}.{n}", system.evaluate, query, now)
            tick += elapsed
            rec.query(query.kind, elapsed)
            updates += len(snapshot.table.objects())
            rec.count("pruning.candidates", len(snapshot.candidates))
            rec.count("pruning.observed", len(universe))
            rec.check_table(snapshot.table, f"q{now}.{n}")
            results = snapshot.range_results if query.kind == "range" else snapshot.knn_results
            (result,) = results.values()
            _answer_query(rec, query, result, second, universe, self.load.sim.graph)
        rec.tick(tick, updates)


class QueryServing(ServiceWorkload):
    """TrackingService reads beside writes: many ad-hoc queries per tick."""

    def __init__(self, seed: int, objects: int = 100, warmup: int = 15,
                 queries: int = 600, scored: int = 20, sessions: int = 10,
                 digest_units: int = 2, accuracy_units: int = 30) -> None:
        super().__init__(Load(seed, objects, lambda load: self._queries(load, queries),
                              by_tag=True),
                         warmup, digest_units, accuracy_units)
        self.scored = scored
        self.sessions = [
            (self.load.window(0.01, 0.05), self.load.sim.random_query_point(),
             int(self.load.rng.integers(1, 10)))
            for _ in range(sessions)
        ]

    @staticmethod
    def _queries(load: Load, count: int) -> List[Query]:
        """Alternating range (1-5% windows, Fig. 9) and kNN (k 1-9, Fig. 10)."""
        queries = []
        for n in range(count):
            if n % 2 == 0:
                queries.append(Query("range", window=load.window(0.01, 0.05)))
            else:
                queries.append(Query("knn", point=load.sim.random_query_point(),
                                     k=int(load.rng.integers(1, 10))))
        return queries

    def build(self) -> TrackingService:
        service = TrackingService(DEFAULT_CONFIG)
        for n, (window, point, k) in enumerate(self.sessions):
            service.sessions.subscribe_range(window, session_id=f"range-{n}")
            service.sessions.subscribe_knn(point, k, session_id=f"knn-{n}")
        return service

    def unit(self, system: TrackingService, index: int, rec: Recorder) -> None:
        self.serve_second(system, self.load[self.warmup + index], rec, self.scored)


class GatewayFleet(Workload):
    """GatewayCoordinator over forked partitions: the scale-out path."""

    every_cpu = True

    def __init__(self, seed: int, tenants: int = 2, objects: int = 80,
                 partitions: int = 2, warmup: int = 10, probes: int = 5,
                 digest_units: int = 10, accuracy_units: int = 60) -> None:
        self.partitions = partitions
        self.warmup = warmup
        self.digest_units = digest_units
        self.accuracy_units = accuracy_units
        # Tenant seeds set the workers' filter streams, so they stay fixed;
        # the workload seed drives each tenant's simulated world instead.
        self.specs = demo_tenants(tenants, base_seed=DEFAULT_CONFIG.seed,
                                  num_objects=objects, plan="paper")
        self.loads: Dict[str, Load] = {}
        for n, spec in enumerate(self.specs):
            world = TenantWorld(spec)
            self.loads[spec.tenant_id] = Load(
                child_seed(seed, f"tenant-{n}"), objects,
                lambda load, first=(n == 0): load.probes(probes) if first else [],
                by_tag=True, plan=world.plan, readers=world.readers,
            )
        self.probe_tenant = self.specs[0].tenant_id

    def _tick(self, coordinator: GatewayCoordinator, index: int) -> List[dict]:
        """Submit every tenant's second, then collect them all."""
        for tenant_id, load in self.loads.items():
            coordinator.submit_tick(tenant_id, load[index].batch)
        records = []
        for _ in self.loads:
            coordinator.collect_tick()
            records.append(coordinator.last_slo())
        return records

    def build(self) -> GatewayCoordinator:
        coordinator = GatewayCoordinator(self.specs, num_partitions=self.partitions,
                                         transport="process")
        try:
            self._tick(coordinator, 0)
            if not coordinator.ready():
                raise RuntimeError("gateway not ready after its first tick")
        except BaseException:
            coordinator.close()
            raise
        return coordinator

    def close(self, system: GatewayCoordinator) -> None:
        system.close()

    def warm_up(self, system: GatewayCoordinator) -> None:
        for index in range(1, self.warmup):
            self._tick(system, index)

    def anchor_ids(self, system: GatewayCoordinator) -> Set[int]:
        anchors = self.loads[self.probe_tenant].sim.anchor_index.anchors
        return {anchor.ap_id for anchor in anchors}

    def trace(self, tracer: Tracer, system: GatewayCoordinator) -> None:
        tracer.wrap(system, "submit_tick", "gateway.submit")
        tracer.wrap(system, "collect_tick", "gateway.collect")
        tracer.wrap(coordinator_module, "evaluate_range_query", "query.range")
        tracer.wrap(coordinator_module, "evaluate_knn_query", "query.knn")

    def unit(self, system: GatewayCoordinator, index: int, rec: Recorder) -> None:
        position = self.warmup + index
        now = self.loads[self.probe_tenant][position].batch.second
        records, elapsed = rec.timed("tick", f"t{now}", self._tick, system, position)
        updates = 0
        for tenant_id, load in self.loads.items():
            table = system.latest_snapshot(tenant_id).table
            updates += len(table.objects())
            rec.count("collector.readings", len(load[position].batch.readings))
            rec.check_table(table, f"{tenant_id}/t{now}")
            _publish_rows(rec, table, [])
        rec.tick(elapsed, updates)
        for record in records:
            gateway = record["gateway"]
            rec.count("gateway.barrier_wait_s", gateway["barrier_wait_total"])
            rec.count("gateway.missing_partitions", gateway["missing_partitions"])
            if "straggler_ratio" in gateway:
                rec.count("gateway.straggler_sum", gateway["straggler_ratio"])
                rec.count("gateway.straggler_ticks")
            if gateway["missing_partitions"] or gateway["sheds"]:
                rec.failed += 1
                rec.problem(f"{record['second']}: partial gateway tick {gateway}")
        second = self.loads[self.probe_tenant][position]
        universe = set(system.latest_snapshot(self.probe_tenant).table.objects())
        for n, query in enumerate(second.queries):
            result, elapsed = rec.timed(query.kind, f"q{now}.{n}", self._query, system, query)
            rec.query(query.kind, elapsed)
            _answer_query(rec, query, result, second, universe,
                          self.loads[self.probe_tenant].sim.graph)

    def _query(self, coordinator: GatewayCoordinator, query: Query) -> Any:
        if query.kind == "range":
            return coordinator.query_range(self.probe_tenant, query.window)
        return coordinator.query_knn(self.probe_tenant, query.point, query.k)


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    "live_tracking": LiveTracking,
    "ondemand_queries": OnDemandQueries,
    "query_serving": QueryServing,
    "gateway_fleet": GatewayFleet,
}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def _work_dir() -> str:
    """Working directory for run output inside the benchmark (ignored by git)."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(path, exist_ok=True)
    return path


def _measure(workload: Workload, system: Any, budget: float, min_units: int,
             tracer: Optional[Tracer] = None, units: Optional[int] = None,
             accuracy_units: int = 0) -> Recorder:
    """Warm up, then run measured units for ``budget`` wall seconds.

    At least ``min_units`` run, so the digest and accuracy prefixes are
    complete; with ``units`` given, exactly that many run instead.
    """
    workload.warm_up(system)
    rec = Recorder(tracer, workload.digest_units, accuracy_units,
                   workload.anchor_ids(system), workload.every_cpu)
    caches = workload.caches(system)
    before = [(c.stats.hits, c.stats.misses, c.stats.invalidations) for c in caches]
    if tracer is not None:
        workload.trace(tracer, system)
    gc.collect()
    deadline = _clock() + budget
    index = 0
    try:
        while (index < units) if units is not None else (
            index < min_units or _clock() < deadline
        ):
            rec.begin_unit(index)
            try:
                workload.unit(system, index, rec)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rec.problem(f"unit {index} raised; traceback on stderr")
            index += 1
    finally:
        if tracer is not None:
            tracer.restore()
    rec.end()
    for cache, (hits, misses, invalidations) in zip(caches, before):
        rec.count("cache.hits", cache.stats.hits - hits)
        rec.count("cache.misses", cache.stats.misses - misses)
        rec.count("cache.invalidations", cache.stats.invalidations - invalidations)
    return rec


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def _end_to_end_values(rec: Recorder, setups: List[float],
                       scales: List[float]) -> Dict[str, Tuple[float, int]]:
    ticks = [seconds * scales[unit] for unit, seconds in rec.ticks]
    queries = [seconds * scales[unit] for unit, _, seconds in rec.queries]
    write_s = math.fsum(s * scale for s, scale in zip(rec.unit_write, scales))
    return {
        "setup_s": (float(np.median(setups)), len(setups)),
        "tick_p50_ms": (_percentile_ms(ticks, 50), len(ticks)),
        "tick_p75_ms": (_percentile_ms(ticks, 75), len(ticks)),
        "updates_per_s": (rec.updates / write_s if write_s else 0.0, len(ticks)),
        "queries_per_s": (len(queries) / math.fsum(queries) if queries else 0.0, len(queries)),
        "range_kl": (float(np.mean(rec.kl)) if rec.kl else 0.0, len(rec.kl)),
        "knn_hit_rate": (float(np.mean(rec.hits)) if rec.hits else 0.0, len(rec.hits)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def _metrics(units: Dict[str, str], scaled: Dict[str, Tuple[float, int]],
             raw: Dict[str, Tuple[float, int]]) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"value": scaled[name][0], "unit": unit, "samples": scaled[name][1],
               "raw": raw[name][0]}
        for name, unit in units.items()
    }


def end_to_end_metrics(rec: Recorder,
                       setups: List[Tuple[float, float]]) -> Dict[str, Dict[str, Any]]:
    """The untraced run's metrics; ``setups`` holds (seconds, speed scale)."""
    scaled = _end_to_end_values(rec, [s * scale for s, scale in setups], rec.unit_scales())
    raw = _end_to_end_values(rec, [s for s, _ in setups], [1.0] * len(rec.unit_ops))
    return _metrics(END_TO_END, scaled, raw)


def latency_percentiles(rec: Recorder) -> Dict[str, float]:
    """Scaled per-kind query and tick percentiles, reported but not gated.

    They are too unsteady to gate on: an ``ondemand_queries`` run answers
    about 80 queries of each kind, spread over two orders of magnitude.
    """
    scales = rec.unit_scales()
    ticks = [seconds * scales[unit] for unit, seconds in rec.ticks]
    info = {"tick_p90_ms": _percentile_ms(ticks, 90)}
    for kind in ("range", "knn"):
        times = [seconds * scales[unit] for unit, k, seconds in rec.queries if k == kind]
        info[f"{kind}_p50_ms"] = _percentile_ms(times, 50)
        info[f"{kind}_p90_ms"] = _percentile_ms(times, 90)
    return info


def _per_layer_values(rec: Recorder, tracer: Tracer, scale: float,
                      overhead: float) -> Dict[str, Tuple[float, int]]:
    units = max(rec.unit, 1)
    totals = tracer.layer_totals()
    counters = rec.counters

    def per_unit(value: float) -> float:
        return value / units

    values: Dict[str, Tuple[float, int]] = {}
    for span in LAYER_SPANS:
        self_s, _, calls = totals.get(span, (0.0, 0.0, 0))
        values[f"{span}_ms"] = (per_unit(self_s * scale * 1000.0), calls)
    for name, span in CALL_COUNTS.items():
        calls = totals.get(span, (0.0, 0.0, 0))[2]
        values[name] = (per_unit(calls), calls)
    reseeds = tracer.count_under("filter.init_scan", "filter.observe")
    values["filter.depletion_reseeds"] = (per_unit(reseeds), reseeds)
    values["collector.readings"] = (per_unit(counters.get("collector.readings", 0.0)), units)
    observed = counters.get("pruning.observed", 0.0)
    values["pruning.candidate_ratio"] = (
        counters.get("pruning.candidates", 0.0) / observed if observed else 0.0, int(observed))
    lookups = counters.get("cache.hits", 0.0) + counters.get("cache.misses", 0.0)
    values["cache.hit_ratio"] = (
        counters.get("cache.hits", 0.0) / lookups if lookups else 0.0, int(lookups))
    values["cache.invalidations"] = (per_unit(counters.get("cache.invalidations", 0.0)), units)
    values["sessions.deltas"] = (per_unit(counters.get("sessions.deltas", 0.0)), units)
    saves = counters.get("checkpoint.saves", 0.0)
    values["checkpoint.bytes"] = (
        counters.get("checkpoint.bytes", 0.0) / saves if saves else 0.0, int(saves))
    barrier_s = counters.get("gateway.barrier_wait_s", 0.0)
    collect_s = totals.get("gateway.collect", (0.0, 0.0, 0))[1]
    values["gateway.barrier_wait_ms"] = (per_unit(barrier_s * scale * 1000.0), units)
    values["gateway.merge_ms"] = (
        per_unit(max(collect_s - barrier_s, 0.0) * scale * 1000.0), units)
    stragglers = counters.get("gateway.straggler_ticks", 0.0)
    values["gateway.straggler_ratio"] = (
        counters.get("gateway.straggler_sum", 0.0) / stragglers if stragglers else 0.0,
        int(stragglers))
    values["gateway.missing_partitions"] = (
        per_unit(counters.get("gateway.missing_partitions", 0.0)), units)
    root_s = sum(inclusive for name, (_, inclusive, _) in totals.items()
                 if name.startswith(ROOT_PREFIX))
    attributed_s = sum(self_s for name, (self_s, _, _) in totals.items()
                       if not name.startswith(ROOT_PREFIX))
    values["trace.coverage"] = (attributed_s / root_s if root_s else 0.0, units)
    values["trace.overhead_ratio"] = (overhead, units)
    return values


def per_layer_metrics(rec: Recorder, tracer: Tracer, plain: Recorder) -> Dict[str, Dict[str, Any]]:
    """The traced pass's metrics; ``plain`` is the untraced pass over the same units."""

    def op_seconds(pass_rec: Recorder, scaled: bool) -> float:
        scales = pass_rec.unit_scales() if scaled else [1.0] * len(pass_rec.unit_ops)
        return math.fsum(s * scale for s, scale in zip(pass_rec.unit_ops, scales))

    def overhead(scaled: bool) -> float:
        base = op_seconds(plain, scaled)
        return op_seconds(rec, scaled) / base if base else 0.0

    scaled = _per_layer_values(rec, tracer, _speed_scale(rec.kernels), overhead(True))
    raw = _per_layer_values(rec, tracer, 1.0, overhead(False))
    return _metrics(PER_LAYER, scaled, raw)


def _timed_builds(workload: Workload) -> Tuple[Any, List[Tuple[float, float]]]:
    """Build ``SETUP_REPEATS`` times; keep the last system.

    Returns it with each build's (seconds, speed scale), the scale taken
    from the calibration kernels run just before and after that build.
    """
    builds: List[float] = []
    kernels = [calibration_kernel(workload.every_cpu)]
    system = None
    for _ in range(SETUP_REPEATS):
        if system is not None:
            workload.close(system)
        gc.collect()
        start = _clock()
        system = workload.build()
        builds.append(_clock() - start)
        kernels.append(calibration_kernel(workload.every_cpu))
    scales = [_speed_scale(kernels[i:i + 2]) for i in range(SETUP_REPEATS)]
    return system, list(zip(builds, scales))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 trace_path: Optional[str] = None, **sizes: Any) -> Dict[str, Any]:
    """One benchmark run of one workload; returns the detail document.

    ``sizes`` override the workload's default sizes (the self-tests run
    toy sizes); the command line always uses the defaults.
    """
    workload = WORKLOADS[name](seed, **sizes)
    min_units = workload.digest_units
    try:
        if not trace:
            min_units = max(min_units, workload.accuracy_units)
            system, setups = _timed_builds(workload)
            try:
                rec = _measure(workload, system, seconds, min_units,
                               accuracy_units=workload.accuracy_units)
            finally:
                workload.close(system)
            metrics = end_to_end_metrics(rec, setups)
            info = latency_percentiles(rec)
            slo = _percentile_ms([seconds for _, seconds in rec.ticks], 90)
            digests = [rec.digest]
        else:
            system = workload.build()
            try:
                plain = _measure(workload, system, seconds / 2.0, min_units)
            finally:
                workload.close(system)
            tracer = Tracer()
            system = workload.build()
            try:
                rec = _measure(workload, system, 0.0, min_units, tracer=tracer,
                               units=plain.unit)
            finally:
                workload.close(system)
            metrics = per_layer_metrics(rec, tracer, plain)
            digests = [plain.digest, rec.digest]
            rec.problems = plain.problems + rec.problems
            rec.attempted += plain.attempted
            rec.failed += plain.failed
            if trace_path:
                tracer.write(trace_path, {"workload": name, "seed": seed})
    finally:
        workload.finish()
    problems = list(rec.problems)
    if len(set(digests)) != 1:
        problems.append(f"traced and untraced answer digests differ: {digests}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "units": rec.unit,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "digest": digests[0],
        "kernel_ms_median": float(np.median(rec.kernels)) * 1000.0,
        "latency": None if trace else info,
        "slo": None if trace else {
            "tick_p90_ms": slo, "limit_ms": SLO_TICK_P90_MS, "met": slo < SLO_TICK_P90_MS,
        },
        "problems": problems,
        "correct": not problems,
        "metrics": metrics,
        "trace_file": trace_path if trace else None,
    }
