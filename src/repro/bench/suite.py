"""The ``repro bench`` workload suite.

Each workload is a seeded end-to-end slice of the pipeline, run at one
fixed seed and size. Running one produces two kinds of exact evidence:

* ``work`` — a fixed set of **integer** counters, most read from the
  :mod:`repro.obs` registry after the run. Seeded runs are
  bit-deterministic, so any drift means the code does different work;
* ``digest`` — a SHA-256 over the canonical answers (probabilities
  rounded to nine decimals).

The document :func:`run_suite` returns is pinned byte for byte in
``benchmarks/BENCH_BASELINE.json`` and checked by the tier-1 suite.
Nothing here reads a clock: timing is the end-to-end harness's job.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Mapping, Tuple

import repro.obs as obs
from repro import __version__
from repro.config import DEFAULT_CONFIG, SimulationConfig

RESULT_FORMAT = "repro-bench-result"

#: The one seed every workload runs at.
SEED = 7

#: A workload's evidence: its integer work counters and its answer digest.
Evidence = Tuple[Dict[str, int], str]


def _config() -> SimulationConfig:
    return DEFAULT_CONFIG.with_overrides(
        seed=SEED, num_objects=16, observability=False
    )


def _digest(payload: object) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _counter_work(names: Tuple[str, ...]) -> Dict[str, int]:
    """Read the named counter families (label-summed) as exact integers."""
    registry = obs.registry()
    return {name: int(registry.counter_total(name)) for name in names}


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _bench_filter_replay() -> Evidence:
    """Batch pipeline: simulate, ingest, filter, answer queries."""
    from repro.queries.types import KNNQuery, RangeQuery
    from repro.sim import Simulation

    eval_points = (15, 25)

    sim = Simulation(_config(), build_symbolic=False)
    answers: List[Tuple[str, str, float]] = []
    obs.enable(fresh=True)
    try:
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
    work["sim_seconds"] = eval_points[-1]
    return work, _digest(answers)


def _bench_service_replay() -> Evidence:
    """Online service: replay of a recorded log through ``TrackingService``."""
    from repro.geometry import Point, Rect
    from repro.service import ReplaySource, TrackingService
    from repro.sim import Simulation

    config = _config()
    seconds = 15

    sim = Simulation(config, build_symbolic=False)
    readings = []
    for _ in range(seconds):
        readings.extend(sim.step())

    obs.enable(fresh=True)
    deltas = 0
    try:
        service = TrackingService(config, seed=SEED)
        try:
            service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
            service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
            for batch in ReplaySource(readings).batches():
                deltas += len(service.process_batch(batch))
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
    return work, _digest(rows)


def _bench_query_eval() -> Evidence:
    """Query evaluation repeated over a fixed filtered table (read path)."""
    from repro.queries.types import KNNQuery, RangeQuery
    from repro.sim import Simulation

    horizon = 12
    rounds = 6

    sim = Simulation(_config(), build_symbolic=False)
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
        answers: List[Tuple[int, str, str, float]] = []
        for round_index in range(rounds):
            snapshot = sim.pf_engine.evaluate(horizon, rng=sim.pf_rng)
            for result in snapshot.range_results.values():
                matched += len(result.objects())
            for result in snapshot.knn_results.values():
                matched += len(result.probabilities)
            for result in (
                *snapshot.range_results.values(),
                *snapshot.knn_results.values(),
            ):
                for obj, p in result.probabilities.items():
                    answers.append((round_index, result.query_id, obj, round(p, 9)))
        work = _counter_work(("engine.rounds", "engine.queries"))
    finally:
        obs.disable()
    work["matched"] = matched
    work["rounds"] = rounds
    return work, _digest(sorted(answers))


def _bench_analytics_replay() -> Evidence:
    """Incremental analytics maintenance over a recorded snapshot stream.

    Replays the same stream through both maintenance strategies: the
    delta-maintained :class:`AnalyticsEngine` and the full-refold
    :class:`NaiveAnalytics` reference. The naive flow tally is a work
    counter, and its occupancy must agree with the engine's (checked
    here, loudly).
    """
    from repro.analytics import AnalyticsEngine, NaiveAnalytics
    from repro.service import ReplaySource, TrackingService
    from repro.sim import Simulation

    config = _config()
    seconds = 18

    sim = Simulation(config, build_symbolic=False)
    readings = []
    for _ in range(seconds):
        readings.extend(sim.step())

    snapshots = []
    with TrackingService(config, seed=SEED) as service:
        for batch in ReplaySource(readings).batches():
            service.process_batch(batch)
            snapshots.append(service.snapshot())
        plan, anchors = service.plan, service.anchor_index

    engine = AnalyticsEngine(plan, anchors)
    for snapshot in snapshots:
        engine.observe_snapshot(snapshot)

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
    return work, _digest(occupancy)


def _bench_gateway_throughput() -> Evidence:
    """Multi-tenant gateway serving: fan-out/fan-in ticks, then queries.

    Stands up a partitioned gateway (inline transport — the forked
    transport is bit-identical), streams N tenants' simulated seconds
    through the fan-out/fan-in path, then answers alternating range/kNN
    queries round-robin across tenants. The same deterministic batches
    are served twice: once with telemetry disabled and once enabled
    (the source of the work counters). Both passes must produce
    identical answers — the bench itself enforces the telemetry
    bit-identity invariant.
    """
    from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
    from repro.geometry import Point, Rect
    from repro.service.ingest import LiveSimSource
    from repro.sim import Simulation

    tenants = 2
    seconds = 8
    queries = 120
    partitions = 2

    specs = demo_tenants(tenants, base_seed=SEED, num_objects=6, plan="small")
    batches = {}
    for spec in specs:
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        batches[spec.tenant_id] = list(LiveSimSource(sim, seconds).batches())
    bounds = {spec.tenant_id: TenantWorld(spec).plan.bounds for spec in specs}

    def serve() -> List[Tuple[str, str, str, float]]:
        answers: List[Tuple[str, str, str, float]] = []
        coordinator = GatewayCoordinator(
            specs, num_partitions=partitions, transport="inline"
        )
        try:
            for tick in range(seconds):
                for spec in specs:
                    coordinator.submit_tick(
                        spec.tenant_id, batches[spec.tenant_id][tick]
                    )
                for _ in specs:
                    coordinator.collect_tick()
            for index in range(queries):
                spec = specs[index % len(specs)]
                box = bounds[spec.tenant_id]
                min_x, min_y, max_x, max_y = box.min_x, box.min_y, box.max_x, box.max_y
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
                for obj, p in sorted(result.probabilities.items()):
                    answers.append((spec.tenant_id, result.query_id, obj, round(p, 9)))
        finally:
            coordinator.close()
        return answers

    obs.disable()
    answers = serve()
    obs.enable(fresh=True)
    try:
        on_answers = serve()
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
    return work, _digest(answers)


_WORKLOADS: Tuple[Tuple[str, Callable[[], Evidence]], ...] = (
    ("filter_replay", _bench_filter_replay),
    ("service_replay", _bench_service_replay),
    ("query_eval", _bench_query_eval),
    ("analytics_replay", _bench_analytics_replay),
    ("gateway_throughput", _bench_gateway_throughput),
)


# ----------------------------------------------------------------------
# suite driver
# ----------------------------------------------------------------------
def run_suite() -> Dict[str, object]:
    """Run every workload and return the result document."""
    was_enabled = obs.enabled()
    workloads: Dict[str, object] = {}
    for name, fn in _WORKLOADS:
        work, digest = fn()
        workloads[name] = {"digest": digest, "work": work}
    if was_enabled:
        # The workloads toggle the global registry; restore the caller's
        # observability session rather than leaving it off.
        obs.enable(fresh=False)
    return {
        "format": RESULT_FORMAT,
        "repro_version": __version__,
        "seed": SEED,
        "workloads": workloads,
    }


def render_result(result: Mapping[str, object]) -> str:
    """A result document as canonical, diff-friendly JSON."""
    return json.dumps(result, indent=2, sort_keys=True) + "\n"


def write_result(result: Mapping[str, object], path: str) -> str:
    """Write a result document as canonical JSON."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_result(result))
    return path
