"""The ``repro bench run`` workload suite.

Each workload is a seeded end-to-end slice of the pipeline. Running one
produces three kinds of evidence:

* ``wall_seconds`` — elapsed wall clock, for the tolerance-gated timing
  comparison (always normalized by the calibration kernel first);
* ``work`` — a fixed set of **integer** counters read from the
  :mod:`repro.obs` registry after the run. Seeded runs are
  bit-deterministic, so these are compared exactly by the gate: any
  drift means the code does different work, not that the machine was
  slow;
* ``digest`` — a SHA-256 over the canonical query answers (rounded to
  nine decimals), for optional strict bit-identity checks on a single
  platform.

Two profiles: ``smoke`` (seconds, runs in CI on every push) and ``full``
(minutes, for local before/after measurements).
"""

from __future__ import annotations

import datetime as _datetime
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

import numpy as np

import repro.obs as obs
from repro import __version__
from repro.config import DEFAULT_CONFIG, SimulationConfig

RESULT_FORMAT = "repro-bench-result"
RESULT_VERSION = 1

PROFILES = ("smoke", "full")


@dataclass(frozen=True)
class WorkloadResult:
    """One workload's evidence: timing, integer work profile, digest.

    ``stats`` carries machine-dependent derived measurements (throughput,
    tail latency) for humans and dashboards; the compare gate ignores it
    — only ``work`` is compared exactly and only ``wall_seconds`` is
    tolerance-gated.
    """

    name: str
    wall_seconds: float
    work: Dict[str, int]
    digest: str
    stats: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        document: Dict[str, object] = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "work": dict(sorted(self.work.items())),
            "digest": self.digest,
        }
        if self.stats:
            document["stats"] = dict(sorted(self.stats.items()))
        return document


def _profile_config(profile: str, seed: int) -> SimulationConfig:
    if profile == "full":
        return DEFAULT_CONFIG.with_overrides(
            seed=seed, num_objects=60, observability=False
        )
    return DEFAULT_CONFIG.with_overrides(
        seed=seed, num_objects=16, observability=False
    )


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counter_work(names: Tuple[str, ...]) -> Dict[str, int]:
    """Read the named counter families (label-summed) as exact integers."""
    registry = obs.registry()
    return {name: int(registry.counter_total(name)) for name in names}


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def calibration_kernel_seconds(repeats: int = 3) -> float:
    """Time a fixed numpy kernel; the cross-machine speed yardstick.

    The gate divides each workload's wall time by this number before
    comparing against the baseline, so a baseline recorded on a fast
    machine does not fail the gate on a slow one (and vice versa). The
    kernel mixes the operations the pipeline leans on: dense arithmetic,
    cumulative sums, sorting, and searchsorted.
    """
    rng = np.random.default_rng(12345)
    weights = rng.random(200_000)
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        w = weights.copy()
        for _ in range(20):
            w = w * 1.000001 + 0.5
            c = np.cumsum(w)
            c /= c[-1]
            positions = (np.arange(w.size) + 0.5) / w.size
            idx = np.searchsorted(c, positions)
            w = np.sort(w[np.clip(idx, 0, w.size - 1)])
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _bench_filter_replay(profile: str, seed: int) -> WorkloadResult:
    """Batch pipeline: simulate, ingest, filter, answer queries."""
    from repro.queries.types import KNNQuery, RangeQuery
    from repro.sim import Simulation

    config = _profile_config(profile, seed)
    seconds = 60 if profile == "full" else 25
    eval_points = (30, 45, 60) if profile == "full" else (15, 25)

    sim = Simulation(config, build_symbolic=False)
    answers: List[Tuple[str, str, float]] = []
    obs.enable(fresh=True)
    try:
        start = time.perf_counter()
        for timestamp in eval_points:
            sim.run_until(timestamp)
            windows = sim.random_windows(3)
            points = sim.random_query_points(2)
            sim.pf_engine.clear_queries()
            for i, window in enumerate(windows):
                sim.pf_engine.register_range_query(RangeQuery(f"r{i}", window))
            for i, point in enumerate(points):
                sim.pf_engine.register_knn_query(KNNQuery(f"k{i}", point, 3))
            snapshot = sim.pf_engine.evaluate(timestamp, rng=sim.pf_rng)
            for result in snapshot.range_results.values():
                for obj, p in sorted(result.probabilities.items()):
                    answers.append((result.query_id, obj, round(p, 9)))
            for result in snapshot.knn_results.values():
                for obj, p in sorted(result.probabilities.items()):
                    answers.append((result.query_id, obj, round(p, 9)))
        elapsed = time.perf_counter() - start
        work = _counter_work(
            (
                "filter.runs",
                "filter.seconds_replayed",
                "filter.observations",
                "engine.rounds",
                "engine.objects_evaluated",
            )
        )
    finally:
        obs.disable()
    work["answers"] = len(answers)
    work["sim_seconds"] = seconds if profile == "full" else eval_points[-1]
    return WorkloadResult(
        name="filter_replay",
        wall_seconds=elapsed,
        work=work,
        digest=_digest(answers),
    )


def _bench_service_replay(profile: str, seed: int) -> WorkloadResult:
    """Online service: replay of a recorded log through ``TrackingService``."""
    from repro.geometry import Point, Rect
    from repro.service import ReplaySource, TrackingService
    from repro.sim import Simulation

    config = _profile_config(profile, seed)
    seconds = 40 if profile == "full" else 15

    sim = Simulation(config, build_symbolic=False)
    readings = []
    for _ in range(seconds):
        readings.extend(sim.step())

    obs.enable(fresh=True)
    deltas = 0
    try:
        service = TrackingService(config, seed=seed)
        try:
            service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
            service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
            start = time.perf_counter()
            for batch in ReplaySource(readings).batches():
                deltas += len(service.process_batch(batch))
            elapsed = time.perf_counter() - start
            tracked = len(service.snapshot().table.objects())
            rows: List[Tuple[str, int, float]] = []
            table = service.snapshot().table
            for obj in sorted(table.objects()):
                for anchor, p in sorted(table.distribution_of(obj).items()):
                    rows.append((obj, anchor, round(p, 9)))
        finally:
            service.close()
        work = _counter_work(
            ("filter.runs", "filter.backend_runs")
        )
    finally:
        obs.disable()
    work["ticks"] = seconds
    work["deltas"] = deltas
    work["tracked"] = tracked
    return WorkloadResult(
        name="service_replay",
        wall_seconds=elapsed,
        work=work,
        digest=_digest(rows),
    )


def _bench_query_eval(profile: str, seed: int) -> WorkloadResult:
    """Query evaluation over a fixed filtered table (read-path cost)."""
    from repro.queries.types import KNNQuery, RangeQuery
    from repro.sim import Simulation

    config = _profile_config(profile, seed)
    horizon = 30 if profile == "full" else 12
    rounds = 20 if profile == "full" else 6

    sim = Simulation(config, build_symbolic=False)
    sim.run_until(horizon)
    windows = sim.random_windows(4)
    points = sim.random_query_points(3)

    obs.enable(fresh=True)
    try:
        sim.pf_engine.clear_queries()
        for i, window in enumerate(windows):
            sim.pf_engine.register_range_query(RangeQuery(f"r{i}", window))
        for i, point in enumerate(points):
            sim.pf_engine.register_knn_query(KNNQuery(f"k{i}", point, 3))
        matched = 0
        start = time.perf_counter()
        for _ in range(rounds):
            snapshot = sim.pf_engine.evaluate(horizon, rng=sim.pf_rng)
            for result in snapshot.range_results.values():
                matched += len(result.objects())
            for result in snapshot.knn_results.values():
                matched += len(result.probabilities)
        elapsed = time.perf_counter() - start
        work = _counter_work(("engine.rounds", "engine.queries"))
    finally:
        obs.disable()
    work["matched"] = matched
    work["rounds"] = rounds
    return WorkloadResult(
        name="query_eval",
        wall_seconds=elapsed,
        work=work,
        digest=_digest(matched),
    )


def _bench_profiler_overhead(profile: str, seed: int) -> WorkloadResult:
    """Disabled-path cost of the observability layer.

    Hammers the exact guard path every instrumented hot-path call site
    pays while observability is off: a counter add, a timer, and a span,
    interleaved with a little real arithmetic so the guards are measured
    in context rather than in a tight guard-only loop. The profiler
    itself adds no call sites beyond these, so this workload is the
    regression gate for the "≤1% overhead when disabled" budget.
    """
    iterations = 600_000 if profile == "full" else 120_000
    obs.disable()  # the budget under test is the *disabled* path
    checksum = seed
    start = time.perf_counter()
    for index in range(iterations):
        obs.add("bench.guard")
        with obs.timer("bench.guard_timer"):
            checksum = (checksum * 31 + index) % 1_000_003
        with obs.span("bench.guard_span"):
            checksum = (checksum ^ (index << 1)) % 1_000_003
    elapsed = time.perf_counter() - start
    return WorkloadResult(
        name="profiler_overhead",
        wall_seconds=elapsed,
        work={"iterations": iterations, "checksum": checksum},
        digest=_digest([iterations, checksum]),
    )


def _bench_analytics_replay(profile: str, seed: int) -> WorkloadResult:
    """Incremental analytics maintenance over a recorded snapshot stream.

    Replays the same stream through both maintenance strategies: the
    delta-maintained :class:`AnalyticsEngine` (whose time is the gated
    ``wall_seconds``) and the full-refold :class:`NaiveAnalytics`
    reference, which serves as an equivalence cross-check — its flow
    tally is a gated integer counter and its occupancy must agree with
    the engine's (checked here, loudly). The naive side's wall time is
    machine-dependent and deliberately kept out of the exact-compare
    work profile; run ``repro bench run --full`` locally to eyeball the
    incremental-vs-recompute throughput gap.
    """
    from repro.analytics import AnalyticsEngine, NaiveAnalytics
    from repro.service import ReplaySource, TrackingService
    from repro.sim import Simulation

    config = _profile_config(profile, seed)
    seconds = 50 if profile == "full" else 18

    sim = Simulation(config, build_symbolic=False)
    readings = []
    for _ in range(seconds):
        readings.extend(sim.step())

    # Record the published snapshots once, outside the timed region.
    snapshots = []
    with TrackingService(config, seed=seed) as service:
        for batch in ReplaySource(readings).batches():
            service.process_batch(batch)
            snapshots.append(service.snapshot())
        plan, anchors = service.plan, service.anchor_index

    engine = AnalyticsEngine(plan, anchors)
    start = time.perf_counter()
    for snapshot in snapshots:
        engine.observe_snapshot(snapshot)
    elapsed = time.perf_counter() - start

    naive = NaiveAnalytics(plan, anchors)
    for snapshot in snapshots:
        naive.observe_snapshot(snapshot)

    # Equivalence is part of the workload's contract: the incremental
    # aggregates must match both the naive replay and a full recompute
    # of the final table (failing loudly beats a cryptic digest drift).
    engine.self_check(snapshots[-1].table)
    for region in engine.region_map.regions:
        gap = abs(engine.occupancy_of(region)[0] - naive.occupancy[region])
        if gap > 1e-6:
            raise AssertionError(
                f"incremental vs naive occupancy drift in {region}: {gap}"
            )
    occupancy = {
        region: round(engine.occupancy_of(region)[0], 9)
        for region in engine.region_map.regions
    }
    work = {
        "epochs": engine.epochs,
        "updates": engine.updates,
        "flow_events": engine.flow_events,
        "naive_flow_events": naive.flow_events,
    }
    return WorkloadResult(
        name="analytics_replay",
        wall_seconds=elapsed,
        work=work,
        digest=_digest(occupancy),
    )


def _bench_gateway_throughput(profile: str, seed: int) -> WorkloadResult:
    """Multi-tenant gateway serving: queries/sec, tail latency, telemetry tax.

    Stands up a partitioned gateway (inline transport — the forked
    transport is bit-identical, and forking would make the timing
    measure process spawn instead of serving), streams N tenants'
    simulated seconds through the fan-out/fan-in path, then hammers the
    read path with alternating range/kNN queries round-robin across
    tenants. The same deterministic batches are served twice: once with
    telemetry disabled (that pass's wall clock is the gated
    ``wall_seconds``, so the "observability off costs ~nothing" budget
    is what regresses the gate) and once with telemetry enabled (the
    source of the exact-compare work counters, which do not depend on
    the obs switch, plus the enabled-path queries-per-second). Both
    passes must produce byte-identical answers — the bench itself
    enforces the telemetry bit-identity invariant. Query answers are
    seeded-deterministic and digested; derived throughput, latency, and
    the enabled/disabled overhead ratio land in ``stats``, outside the
    exact-compare gate (they measure the machine, not the code's work
    profile).
    """
    from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
    from repro.geometry import Point, Rect
    from repro.service.ingest import LiveSimSource
    from repro.sim import Simulation

    tenants = 3 if profile == "full" else 2
    objects = 12 if profile == "full" else 6
    seconds = 20 if profile == "full" else 8
    queries = 600 if profile == "full" else 120
    partitions = 4 if profile == "full" else 2

    specs = demo_tenants(tenants, base_seed=seed, num_objects=objects, plan="small")
    batches = {}
    for spec in specs:
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        batches[spec.tenant_id] = list(LiveSimSource(sim, seconds).batches())
    bounds = {spec.tenant_id: TenantWorld(spec).plan.bounds for spec in specs}

    def serve() -> Tuple[float, float, List[Tuple[str, str, str, float]], List[float]]:
        answers: List[Tuple[str, str, str, float]] = []
        latencies: List[float] = []
        coordinator = GatewayCoordinator(
            specs, num_partitions=partitions, transport="inline"
        )
        try:
            start = time.perf_counter()
            for tick in range(seconds):
                for spec in specs:
                    coordinator.submit_tick(
                        spec.tenant_id, batches[spec.tenant_id][tick]
                    )
                for _ in specs:
                    coordinator.collect_tick()
            ingest_elapsed = time.perf_counter() - start

            query_start = time.perf_counter()
            for index in range(queries):
                spec = specs[index % len(specs)]
                box = bounds[spec.tenant_id]
                min_x, min_y, max_x, max_y = box.min_x, box.min_y, box.max_x, box.max_y
                q_start = time.perf_counter()
                if index % 2 == 0:
                    result = coordinator.query_range(
                        spec.tenant_id,
                        Rect(min_x, min_y, (min_x + max_x) / 2, max_y),
                        query_id=f"r{index}",
                    )
                else:
                    result = coordinator.query_knn(
                        spec.tenant_id,
                        Point((min_x + max_x) / 2, (min_y + max_y) / 2),
                        3,
                        query_id=f"k{index}",
                    )
                latencies.append(time.perf_counter() - q_start)
                for obj, p in sorted(result.probabilities.items()):
                    answers.append((spec.tenant_id, result.query_id, obj, round(p, 9)))
            query_elapsed = time.perf_counter() - query_start
        finally:
            coordinator.close()
        return ingest_elapsed, query_elapsed, answers, latencies

    # Pass 1 — telemetry off: the gated cost of the serving path itself.
    obs.disable()
    ingest_elapsed, query_elapsed, answers, latencies = serve()

    # Pass 2 — telemetry on: work counters + the instrumented path's tax.
    obs.enable(fresh=True)
    try:
        on_ingest, on_query, on_answers, _ = serve()
        work = _counter_work(("gateway.ticks", "gateway.subticks", "gateway.queries"))
    finally:
        obs.disable()
    if on_answers != answers:
        raise AssertionError(
            "telemetry changed gateway answers: the obs switch must be inert"
        )
    work["tenants"] = tenants
    work["partitions"] = partitions
    work["answers"] = len(answers)
    ordered = sorted(latencies)
    off_elapsed = ingest_elapsed + query_elapsed
    on_elapsed = on_ingest + on_query
    stats = {
        "ingest_seconds": round(ingest_elapsed, 6),
        "queries_per_second": round(queries / query_elapsed, 3),
        "p50_latency_ms": round(1000 * ordered[len(ordered) // 2], 6),
        "p99_latency_ms": round(
            1000 * ordered[min(len(ordered) - 1, (99 * len(ordered)) // 100)], 6
        ),
        "telemetry_queries_per_second": round(queries / on_query, 3),
        "telemetry_overhead_ratio": round(
            on_elapsed / off_elapsed if off_elapsed > 0 else 1.0, 4
        ),
    }
    return WorkloadResult(
        name="gateway_throughput",
        wall_seconds=off_elapsed,
        work=work,
        digest=_digest(answers),
        stats=stats,
    )


_WORKLOADS: Tuple[Tuple[str, Callable[[str, int], WorkloadResult]], ...] = (
    ("filter_replay", _bench_filter_replay),
    ("service_replay", _bench_service_replay),
    ("query_eval", _bench_query_eval),
    ("profiler_overhead", _bench_profiler_overhead),
    ("analytics_replay", _bench_analytics_replay),
    ("gateway_throughput", _bench_gateway_throughput),
)


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_suite(profile: str = "smoke", seed: int = 7) -> Dict[str, object]:
    """Run every workload and return the result document."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
    was_enabled = obs.enabled()
    calibration = calibration_kernel_seconds()
    results: List[WorkloadResult] = []
    for _name, fn in _WORKLOADS:
        results.append(fn(profile, seed))
    if was_enabled:
        # run_suite toggles the global registry per workload; restore the
        # caller's observability session rather than leaving it off.
        obs.enable(fresh=False)
    return {
        "format": RESULT_FORMAT,
        "version": RESULT_VERSION,
        "repro_version": __version__,
        "profile": profile,
        "seed": seed,
        "created": _datetime.datetime.now(_datetime.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_seconds": calibration,
        "workloads": {r.name: r.as_dict() for r in results},
    }


def default_result_name(when: _datetime.date | None = None) -> str:
    """The versioned artifact name: ``BENCH_YYYY-MM-DD.json``."""
    day = when if when is not None else _datetime.date.today()
    return f"BENCH_{day.isoformat()}.json"


def write_result(result: Mapping[str, object], path: str) -> str:
    """Write a result document as stable, diff-friendly JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
