"""Command-line interface.

Ten subcommands::

    repro simulate    run the simulator; export the floor plan, reader
                      deployment, and raw reading log
    repro render      draw a floor plan (and optional deployment) as ASCII
    repro experiment  regenerate a figure of the paper (9-13), the filter
                      backend comparison, or an ablation, at a chosen
                      ``--scale`` (quick, standard, paper)
    repro serve       run the online tracking service over a replayed log
                      (or live simulation): per-object filtering, standing
                      queries, checkpoint/restore; ``--metrics-port``
                      serves /metrics + /healthz (+/alerts), ``--events``
                      writes the per-epoch event log (with rotation),
                      drift alerting runs whenever observability is on
    repro demo        a 60-second end-to-end demo with live queries
    repro stats       render the summary table of a --trace output file
                      (``--prom`` for Prometheus text, ``--chrome-trace``
                      for a Perfetto span timeline, ``--flamegraph`` for
                      speedscope JSON, ``--collapsed`` for flamegraph.pl
                      stacks)
    repro profile     run a seeded workload under the deterministic
                      profiler clock and print/export where time goes
                      (per phase and backend)
    repro top         live ANSI dashboard over a running serve endpoint
                      or an --events log file
    repro bench       run the deterministic workload suite and print its
                      work counters and answer digests (pinned in
                      benchmarks/BENCH_BASELINE.json)
    repro lint        static-check the repo's determinism, clock, and
                      thread-safety invariants (repro.analysis)
    repro analytics   continuous occupancy/flow/dwell analytics: run a
                      live simulation with the engine attached (serve),
                      answer historical window queries from a recorded
                      event log (window), or summarize a whole log
                      (report)

``simulate`` and ``experiment`` accept ``--trace PATH``: observability
(:mod:`repro.obs`) is enabled for the run and the collected metrics and
spans are written to ``PATH`` as JSON.

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

import repro.obs as obs
from repro.analysis.baseline import DEFAULT_BASELINE
from repro.analysis.rules.schema_lock import DEFAULT_SCHEMA_LOCK
from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.filters import DEFAULT_BACKEND, available_backends
from repro.sim.experiments import SCALES, SUBJECTS, format_rows, run_subject


def _add_filter_option(
    subparser: argparse.ArgumentParser, default: Optional[str] = DEFAULT_BACKEND
) -> None:
    """The shared ``--filter`` backend selector.

    ``serve`` passes ``default=None`` so a restore with no explicit
    ``--filter`` adopts the checkpoint's recorded backend.
    """
    if default is None:
        note = f"default: {DEFAULT_BACKEND}; --restore adopts the checkpoint's"
    else:
        note = f"default: {default}"
    subparser.add_argument(
        "--filter",
        dest="filter_backend",
        choices=available_backends(),
        default=default,
        help=f"Bayesian filter backend ({note})",
    )


def _count(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "RFID + particle filter indoor spatial query evaluation "
            "(EDBT 2013 reproduction)"
        ),
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="run the simulator and export world + reading log"
    )
    simulate.add_argument("--objects", type=_count, default=50)
    simulate.add_argument("--seconds", type=_count, default=120)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--readings", metavar="CSV", help="raw reading log output")
    simulate.add_argument("--plan", metavar="JSON", help="floor plan output")
    simulate.add_argument("--deployment", metavar="JSON", help="deployment output")
    simulate.add_argument(
        "--render", action="store_true", help="print the final world state"
    )
    simulate.add_argument(
        "--trace", metavar="JSON",
        help="enable observability and write metrics + spans here",
    )
    _add_filter_option(simulate)

    render = subparsers.add_parser(
        "render", help="draw a floor plan as ASCII"
    )
    render.add_argument(
        "--plan", metavar="JSON", help="floor plan JSON (default: paper preset)"
    )
    render.add_argument(
        "--deployment", metavar="JSON", help="reader deployment JSON to overlay"
    )
    render.add_argument("--columns", type=int, default=96)

    experiment = subparsers.add_parser(
        "experiment",
        help="regenerate a figure of the paper's evaluation, or an ablation",
    )
    experiment.add_argument(
        "figure", choices=[*SUBJECTS, "gate"], metavar="SUBJECT",
        help="one of: " + ", ".join(SUBJECTS) + " (only the figures take --filter),"
        " or gate: this tree's accuracy against --parent's",
    )
    experiment.add_argument(
        "--scale", choices=list(SCALES), default=None,
        help="sampling effort and sweeps (default: paper for the figures and"
        " ablations, standard for gate)",
    )
    experiment.add_argument(
        "--parent", metavar="DIR",
        help="gate: the checkout to compare against (its src/ is imported)",
    )
    experiment.add_argument(
        "--seeds", type=_count, default=10,
        help="gate: run seeds 1..N on both sides (default: 10)",
    )
    experiment.add_argument(
        "--particles", type=_count, default=64,
        help="gate: this tree's particle count (the parent runs 64)",
    )
    experiment.add_argument("--objects", type=_count, default=None)
    experiment.add_argument("--seconds", type=_count, default=None)
    experiment.add_argument("--seed", type=int, default=None)
    experiment.add_argument("--out-csv", metavar="CSV", help="save rows as CSV")
    experiment.add_argument("--out-json", metavar="JSON", help="save rows as JSON")
    experiment.add_argument(
        "--trace", metavar="JSON",
        help="enable observability and write metrics + spans here",
    )
    _add_filter_option(experiment)

    serve = subparsers.add_parser(
        "serve", help="run the online tracking & query-serving service"
    )
    source = serve.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--replay", metavar="LOG",
        help="replay a recorded reading log (.csv or .jsonl)",
    )
    source.add_argument(
        "--live", action="store_true",
        help="generate readings live from the simulator",
    )
    serve.add_argument("--plan", metavar="JSON", help="floor plan (default: paper preset)")
    serve.add_argument(
        "--deployment", metavar="JSON",
        help="reader deployment (default: paper-uniform deployment)",
    )
    serve.add_argument(
        "--tags", metavar="JSON",
        help="tag-to-object mapping file (default: identity mapping)",
    )
    serve.add_argument("--objects", type=int, default=25, help="live mode: object count")
    serve.add_argument("--seconds", type=int, default=None, help="max seconds to serve")
    serve.add_argument("--seed", type=int, default=None)
    serve.add_argument(
        "--tick-rate", type=float, default=0.0, metavar="HZ",
        help="target ticks per second (0 = as fast as possible)",
    )
    serve.add_argument("--no-cache", action="store_true", help="disable the particle cache")
    serve.add_argument(
        "--prune", action="store_true",
        help="only filter objects relevant to standing queries",
    )
    serve.add_argument(
        "--range", dest="ranges", action="append", metavar="X1,Y1,X2,Y2",
        default=[], help="standing range query (repeatable)",
    )
    serve.add_argument(
        "--knn", dest="knns", action="append", metavar="X,Y,K",
        default=[], help="standing kNN query (repeatable)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64, help="ingest queue bound (backpressure)"
    )
    serve.add_argument("--checkpoint", metavar="JSON", help="checkpoint output path")
    serve.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="TICKS",
        help="write the checkpoint every N ticks (plus once at end)",
    )
    serve.add_argument(
        "--restore", metavar="JSON", help="resume from a checkpoint file"
    )
    serve.add_argument("--quiet", action="store_true", help="suppress per-delta output")
    serve.add_argument(
        "--trace", metavar="JSON",
        help="enable observability and write metrics + spans here",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help=(
            "serve /metrics (Prometheus), /healthz and /readyz on this "
            "port (0 = pick a free port); implies observability"
        ),
    )
    serve.add_argument(
        "--metrics-host", default="127.0.0.1", metavar="HOST",
        help="bind address for --metrics-port (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--events", metavar="JSONL",
        help=(
            "write one structured event record per epoch tick here "
            "(phase timings, queue pressure, "
            "accuracy proxies); implies observability"
        ),
    )
    serve.add_argument(
        "--events-rotate-mb", type=float, default=None, metavar="MB",
        help="rotate the --events log when it reaches this size",
    )
    serve.add_argument(
        "--events-keep", type=int, default=3, metavar="N",
        help="rotated --events generations to keep (default: 3)",
    )
    serve.add_argument(
        "--alerts-log", metavar="JSONL",
        help=(
            "write drift-alert fired/resolved events here; implies "
            "observability (alert rules always run while observability "
            "is on)"
        ),
    )
    serve.add_argument(
        "--analytics", action="store_true",
        help=(
            "attach the analytics engine (occupancy, flows, dwell, "
            "heatmap); adds /analytics to --metrics-port, an "
            "'analytics' section to --events records, and checkpoints "
            "its state for bit-exact resume"
        ),
    )
    _add_filter_option(serve, default=None)

    subparsers.add_parser("demo", help="run a quick end-to-end demo")

    stats = subparsers.add_parser(
        "stats", help="summarize a trace file written by --trace"
    )
    stats.add_argument("trace", metavar="JSON", help="trace file to summarize")
    stats.add_argument(
        "--out-csv", metavar="CSV", help="also export flattened metric rows"
    )
    stats.add_argument(
        "--prom", action="store_true",
        help="print the metrics in Prometheus text format instead",
    )
    stats.add_argument(
        "--chrome-trace", metavar="JSON", dest="chrome_trace",
        help="export the spans as Chrome trace-event JSON (Perfetto)",
    )
    stats.add_argument(
        "--flamegraph", metavar="JSON",
        help="export the spans as speedscope JSON (speedscope.app)",
    )
    stats.add_argument(
        "--collapsed", metavar="TXT",
        help="export collapsed stacks (flamegraph.pl / inferno input)",
    )

    profile = subparsers.add_parser(
        "profile",
        help="deterministic cost-attribution profile of a seeded workload",
    )
    profile.add_argument(
        "--smoke", action="store_true",
        help="tiny fixed workload (what CI runs twice and diffs)",
    )
    profile.add_argument("--objects", type=int, default=25)
    profile.add_argument("--seconds", type=int, default=30)
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument(
        "--wall", action="store_true",
        help=(
            "attribute real wall time instead of deterministic clock "
            "units (output is machine-dependent)"
        ),
    )
    profile.add_argument(
        "--top", type=int, default=12, help="phases to print (default: 12)"
    )
    profile.add_argument(
        "--out", metavar="JSON", help="write the attribution document"
    )
    profile.add_argument(
        "--speedscope", metavar="JSON",
        help="write the speedscope flamegraph export",
    )
    profile.add_argument(
        "--collapsed", metavar="TXT", help="write collapsed stacks"
    )
    _add_filter_option(profile)

    top = subparsers.add_parser(
        "top", help="live terminal dashboard for a running serve"
    )
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument(
        "--url", metavar="URL",
        help="base URL of a serve --metrics-port endpoint",
    )
    top_source.add_argument(
        "--events", metavar="JSONL",
        help="tail a serve --events log file instead (also post-mortem)",
    )
    top.add_argument(
        "--alerts-log", metavar="JSONL",
        help="with --events: also fold in this alert event log",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default: 1.0)",
    )
    top.add_argument(
        "--frames", type=int, default=None, metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no ANSI clear)",
    )
    top.add_argument("--width", type=int, default=100)
    top.add_argument(
        "--no-ansi", action="store_true",
        help="never emit ANSI clear codes (append frames instead)",
    )

    bench = subparsers.add_parser(
        "bench", help="deterministic workload suite: work counters + answer digests"
    )
    bench.add_argument(
        "--out", metavar="JSON", default=None,
        help="also write the document here (re-pins benchmarks/BENCH_BASELINE.json)",
    )

    lint = subparsers.add_parser(
        "lint", help="check the repo's determinism/clock/thread invariants"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"], metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=["text", "json"], default="text", dest="fmt",
        help="report format (json is the CI contract)",
    )
    lint.add_argument(
        "--project", action="store_true",
        help=(
            "whole-program mode: also run the cross-file rules "
            "(ARCH/SEED/SCHEMA/LOCKORDER) over one shared project view"
        ),
    )
    lint.add_argument(
        "--rules", metavar="ID[,ID]",
        help="run only these rule ids (e.g. DET,THR or ARCH,LOCKORDER)",
    )
    lint.add_argument(
        "--schema-lock", metavar="JSON", default=None,
        help=(
            "schema lockfile the SCHEMA rule checks drift against "
            f"(default: {DEFAULT_SCHEMA_LOCK} if it exists; "
            "project mode only)"
        ),
    )
    lint.add_argument(
        "--write-schema-lock", action="store_true",
        help=(
            "regenerate the schema lockfile from the current tree and "
            "exit 0 (project mode only)"
        ),
    )
    lint.add_argument(
        "--baseline", metavar="JSON", default=None,
        help=(
            "baseline file of grandfathered findings "
            f"(default: {DEFAULT_BASELINE} if it exists)"
        ),
    )
    lint.add_argument(
        "--write-baseline", action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the invariant catalog and exit",
    )

    analytics = subparsers.add_parser(
        "analytics",
        help="continuous occupancy/flow/dwell analytics over the service",
    )
    analytics_sub = analytics.add_subparsers(
        dest="analytics_command", required=True
    )
    a_serve = analytics_sub.add_parser(
        "serve",
        help=(
            "run a live simulation with the analytics engine attached; "
            "prints the aggregate summary and accuracy vs ground truth"
        ),
    )
    a_serve.add_argument("--objects", type=int, default=25)
    a_serve.add_argument("--seconds", type=int, default=60)
    a_serve.add_argument("--seed", type=int, default=7)
    a_serve.add_argument(
        "--events", metavar="JSONL",
        help="record per-epoch analytics deltas here (window-query input)",
    )
    a_serve.add_argument(
        "--out", metavar="JSON",
        help="also write the summary + accuracy document as JSON",
    )
    _add_filter_option(a_serve)
    a_window = analytics_sub.add_parser(
        "window",
        help=(
            "historical window query over a recorded event log "
            "(reads rotated generations)"
        ),
    )
    a_window.add_argument(
        "events", metavar="JSONL", help="event log from serve --events"
    )
    a_window.add_argument(
        "--from", dest="t0", type=int, default=None, metavar="SECOND",
        help="window start (inclusive; default: log start)",
    )
    a_window.add_argument(
        "--to", dest="t1", type=int, default=None, metavar="SECOND",
        help="window end (inclusive; default: log end)",
    )
    a_window.add_argument(
        "--room", default=None, help="restrict occupancy to one region"
    )
    a_window.add_argument(
        "--json", action="store_true", help="print the raw JSON document"
    )
    a_report = analytics_sub.add_parser(
        "report", help="summarize a whole recorded event log"
    )
    a_report.add_argument(
        "events", metavar="JSONL", help="event log from serve --events"
    )
    a_report.add_argument(
        "--json", action="store_true", help="print the raw JSON document"
    )

    gateway = subparsers.add_parser(
        "gateway",
        help=(
            "partitioned multi-process tracking behind a multi-tenant "
            "HTTP query gateway"
        ),
    )
    tenant_source = gateway.add_mutually_exclusive_group()
    tenant_source.add_argument(
        "--tenants", metavar="JSON",
        help="tenant spec file (a list of {tenant_id, seed, num_objects, plan})",
    )
    tenant_source.add_argument(
        "--demo-tenants", type=int, default=2, metavar="N",
        help="serve N synthetic tenants with distinct seeds (default: 2)",
    )
    gateway.add_argument(
        "--plan", default="paper", metavar="PRESET",
        help="floorplan preset for --demo-tenants (paper/small/linear/cross)",
    )
    gateway.add_argument(
        "--objects", type=int, default=8, metavar="N",
        help="objects per demo tenant (default: 8)",
    )
    gateway.add_argument(
        "--base-seed", type=int, default=101, metavar="SEED",
        help="seed of the first demo tenant (default: 101)",
    )
    gateway.add_argument(
        "--partitions", type=int, default=None, metavar="N",
        help=(
            "worker partitions on the consistent-hash ring "
            "(default: 2, or the checkpoint's count with --restore)"
        ),
    )
    gateway.add_argument(
        "--transport", choices=("process", "inline"), default="process",
        help="worker transport (inline = single-process debug baseline)",
    )
    gateway.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help=(
            "per-partition ingest queue bound; a full queue blocks the "
            "producer (lossless backpressure; default: 64)"
        ),
    )
    gateway.add_argument(
        "--seconds", type=int, default=30, metavar="N",
        help="simulated seconds to stream per tenant (default: 30)",
    )
    gateway.add_argument(
        "--http-port", type=int, default=None, metavar="PORT",
        help=(
            "serve the HTTP query gateway (range/kNN/sessions/analytics "
            "+ /metrics, /healthz) on this port (0 = pick a free port); "
            "implies observability"
        ),
    )
    gateway.add_argument(
        "--http-host", default="127.0.0.1", metavar="HOST",
        help="bind address for --http-port (default: 127.0.0.1)",
    )
    gateway.add_argument(
        "--trace", metavar="JSON",
        help=(
            "write the merged fleet trace at exit (coordinator plus "
            "every worker: partition-labeled metrics, cross-process "
            "spans; feed it to `repro stats --chrome-trace`); implies "
            "observability"
        ),
    )
    gateway.add_argument(
        "--telemetry-interval", type=int, default=8, metavar="TICKS",
        help=(
            "poll worker registries every N collected ticks on the "
            "process transport (0 = only on /metrics scrapes and at "
            "exit; default: 8)"
        ),
    )
    gateway.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help="keep serving HTTP this long after the stream ends",
    )
    gateway.add_argument(
        "--checkpoint", metavar="JSON",
        help="rolling checkpoint file (one coordinated cut of every tenant)",
    )
    gateway.add_argument(
        "--checkpoint-interval", type=int, default=0, metavar="TICKS",
        help="checkpoint every N seconds of stream (plus once at end)",
    )
    gateway.add_argument(
        "--restore", metavar="JSON",
        help="resume from a checkpoint file (partition count may differ)",
    )
    gateway.add_argument(
        "--analytics", action="store_true",
        help="attach per-tenant analytics engines (adds /analytics data)",
    )
    gateway.add_argument(
        "--range", action="append", metavar="X1,Y1,X2,Y2", default=[],
        help="standing range query opened for every tenant (repeatable)",
    )
    gateway.add_argument(
        "--knn", action="append", metavar="X,Y,K", default=[],
        help="standing kNN query opened for every tenant (repeatable)",
    )
    gateway.add_argument(
        "--quiet", action="store_true", help="suppress per-delta output"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "render": _cmd_render,
        "experiment": _cmd_experiment,
        "serve": _cmd_serve,
        "demo": _cmd_demo,
        "stats": _cmd_stats,
        "profile": _cmd_profile,
        "top": _cmd_top,
        "bench": _cmd_bench,
        "lint": _cmd_lint,
        "analytics": _cmd_analytics,
        "gateway": _cmd_gateway,
    }[args.command]
    return handler(args)


def _require_parent_dir(flag: str, path: Optional[str]) -> None:
    """Fail before the run, not after it: a bad output path should not
    cost minutes of simulation first."""
    if path:
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise SystemExit(
                f"repro: error: {flag} directory does not exist: {parent}"
            )


def _start_trace(args: argparse.Namespace) -> bool:
    """Enable observability when ``--trace`` was requested."""
    if getattr(args, "trace", None):
        _require_parent_dir("--trace", args.trace)
        obs.enable()
        return True
    return False


def _finish_trace(args: argparse.Namespace, meta: dict) -> None:
    """Export and disable observability after a traced run."""
    obs.export_json(args.trace, meta=meta)
    obs.disable()
    print(f"trace -> {args.trace}")


# ----------------------------------------------------------------------
def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.io import save_deployment, save_floorplan, write_readings_csv
    from repro.sim import Simulation

    _require_parent_dir("--readings", args.readings)
    _require_parent_dir("--plan", args.plan)
    _require_parent_dir("--deployment", args.deployment)
    tracing = _start_trace(args)
    config = DEFAULT_CONFIG.with_overrides(
        num_objects=args.objects, seed=args.seed
    )
    sim = Simulation(
        config, build_symbolic=False, filter_backend=args.filter_backend
    )

    all_readings = []
    for _ in range(args.seconds):
        sim.run_for(1)
        all_readings.extend(sim.last_readings)

    if tracing:
        # Exercise one full evaluation round (pruning -> filtering ->
        # query eval) plus an all-objects snapshot, so the trace covers
        # pruning counters AND filter phases for every tracked object,
        # not just collector throughput.
        sim.pf_engine.range_query(sim.random_window(), sim.now)
        sim.pf_engine.locations_snapshot(sim.now)

    print(
        f"simulated {args.seconds} s, {args.objects} objects, "
        f"{len(all_readings)} raw readings "
        f"({args.filter_backend} filter)"
    )
    if args.plan:
        save_floorplan(sim.plan, args.plan)
        print(f"floor plan -> {args.plan}")
    if args.deployment:
        save_deployment(sim.readers, args.deployment)
        print(f"deployment -> {args.deployment}")
    if args.readings:
        write_readings_csv(all_readings, args.readings)
        print(f"reading log -> {args.readings}")
    if args.render:
        from repro.viz import render_floorplan

        print(render_floorplan(sim.plan, sim.readers, sim.true_positions()))
    if tracing:
        _finish_trace(
            args,
            meta={
                "command": "simulate",
                "objects": args.objects,
                "seconds": args.seconds,
                "seed": args.seed,
                "filter": args.filter_backend,
            },
        )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.floorplan import paper_office_plan
    from repro.io import load_deployment, load_floorplan
    from repro.viz import render_floorplan

    plan = load_floorplan(args.plan) if args.plan else paper_office_plan()
    readers = load_deployment(args.deployment) if args.deployment else []
    print(render_floorplan(plan, readers, columns=args.columns))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.scale is None:
        args.scale = "standard" if args.figure == "gate" else "paper"
    if args.figure == "gate":
        return _cmd_gate(args)
    _require_parent_dir("--out-csv", args.out_csv)
    _require_parent_dir("--out-json", args.out_json)
    tracing = _start_trace(args)
    scale = SCALES[args.scale]
    config = scale.config
    if args.objects is not None:
        config = config.with_overrides(num_objects=args.objects)
    if args.seconds is not None:
        config = config.with_overrides(duration_seconds=args.seconds)
    if args.seed is not None:
        config = config.with_overrides(seed=args.seed)

    rows = run_subject(
        args.figure, scale, config, filter_backend=args.filter_backend
    )
    title = f"{args.figure} ({SUBJECTS[args.figure].title})"
    print(format_rows(rows, title=title))

    if args.out_csv:
        from repro.io import save_rows_csv

        save_rows_csv(rows, args.out_csv)
        print(f"rows -> {args.out_csv}")
    if args.out_json:
        from repro.io import save_rows_json

        save_rows_json(rows, args.out_json)
        print(f"rows -> {args.out_json}")
    if tracing:
        _finish_trace(
            args,
            meta={
                "command": "experiment",
                "figure": args.figure,
                "scale": args.scale,
                "filter": args.filter_backend,
            },
        )
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    """Exit 1 when a median moves worse than the parent's seed spread."""
    from pathlib import Path

    import repro
    from repro.bench.gate import render_checks, run_gate, smoke_note

    if args.parent is None:
        raise SystemExit("repro experiment gate: --parent DIR is required")
    rows, checks = run_gate(
        Path(args.parent),
        Path(repro.__file__).resolve().parents[2],
        scale=args.scale,
        seeds=args.seeds,
        particles=args.particles,
    )
    print(format_rows(rows, title=(
        f"gate: {args.parent} (64 particles) vs this tree ({args.particles}"
        f" particles), scale {args.scale}, seeds 1..{args.seeds}"
    )))
    print()
    print(render_checks(checks))
    failed = [check for check in checks if not check.passed]
    print(f"gate: {'FAIL' if failed else 'PASS'} ({len(checks) - len(failed)}/{len(checks)} checks)")
    note = smoke_note(args.seeds, args.scale)
    if note is not None:
        print(note)
    return 1 if failed else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.report import load_trace, render_summary, write_csv

    data = load_trace(args.trace)
    if args.prom:
        from repro.obs.expo import render_prometheus

        print(render_prometheus(data), end="")
    else:
        print(render_summary(data))
    if args.out_csv:
        write_csv(data, args.out_csv)
        print(f"rows -> {args.out_csv}")
    if args.chrome_trace:
        from repro.obs.chrometrace import write_chrome_trace

        write_chrome_trace(data, args.chrome_trace)
        print(f"chrome trace -> {args.chrome_trace}")
    if args.flamegraph:
        from repro.obs.profiler import write_speedscope

        write_speedscope(data, args.flamegraph, name=args.trace)
        print(f"speedscope -> {args.flamegraph}")
    if args.collapsed:
        from repro.obs.profiler import build_profile, write_collapsed

        write_collapsed(build_profile(data), args.collapsed)
        print(f"collapsed stacks -> {args.collapsed}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import time

    from repro.obs.profiler import (
        CountingClock,
        build_profile,
        render_attribution,
        write_collapsed,
        write_profile,
        write_speedscope,
    )
    from repro.sim import Simulation

    objects = 8 if args.smoke else args.objects
    seconds = 10 if args.smoke else args.seconds
    clock_kind = "wall" if args.wall else "deterministic"
    if not args.wall:
        # Span durations under the counting clock measure instrumented
        # operations, not machine speed: same seed -> bit-identical
        # attribution on any machine (CI asserts exactly this).
        obs.set_clock(CountingClock())
    obs.enable()
    try:
        config = DEFAULT_CONFIG.with_overrides(
            num_objects=objects, seed=args.seed
        )
        sim = Simulation(
            config, build_symbolic=False, filter_backend=args.filter_backend
        )
        sim.run_for(seconds)
        # One full evaluation round so query-path phases are attributed
        # too, not just the collector/filter loop.
        sim.pf_engine.range_query(sim.random_window(), sim.now)
        sim.pf_engine.locations_snapshot(sim.now)
        meta = {
            "command": "profile",
            "objects": objects,
            "seconds": seconds,
            "seed": args.seed,
            "filter": args.filter_backend,
            "clock": clock_kind,
        }
        snapshot = obs.snapshot(meta=meta)
    finally:
        obs.disable()
        obs.reset()
        obs.set_clock(time.perf_counter)

    result = build_profile(snapshot, clock=clock_kind, meta=meta)
    print(render_attribution(result, top=args.top))
    if args.out:
        write_profile(result, args.out)
        print(f"profile -> {args.out}")
    if args.speedscope:
        write_speedscope(
            snapshot, args.speedscope,
            name=f"repro profile seed={args.seed}",
        )
        print(f"speedscope -> {args.speedscope}")
    if args.collapsed:
        write_collapsed(result, args.collapsed)
        print(f"collapsed stacks -> {args.collapsed}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from repro.obs.dashboard import EventLogTopSource, HttpTopSource, TopLoop

    source: object
    if args.url:
        source = HttpTopSource(args.url)
    else:
        source = EventLogTopSource(args.events, alerts_path=args.alerts_log)
    frames = 1 if args.once else args.frames
    loop = TopLoop(
        source,
        clock=time.monotonic,
        sleep=time.sleep,
        interval=args.interval,
        width=args.width,
        frames=frames,
        use_ansi=not (args.no_ansi or args.once),
    )
    try:
        loop.run()
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import render_result, run_suite, write_result

    result = run_suite()
    sys.stdout.write(render_result(result))
    if args.out:
        write_result(result, args.out)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        Baseline,
        all_project_rules,
        all_rules,
        build_project,
        lint_paths,
        lint_project,
        load_if_exists,
        render_json,
        render_text,
    )
    from repro.analysis.rules.schema_lock import write_lock

    if args.list_rules:
        for heading, rules in (
            ("per-file rules", all_rules()),
            ("whole-program rules (--project)", all_project_rules()),
        ):
            print(f"{heading}:")
            for rule_cls in rules:
                meta = rule_cls.META
                print(f"{meta.rule_id}  [{meta.severity}]  {meta.title}")
                print(f"     {meta.invariant}")
                if meta.applies_to:
                    print(f"     scope: {', '.join(meta.applies_to)}")
        return 0

    schema_lock = args.schema_lock
    if schema_lock is None and os.path.exists(DEFAULT_SCHEMA_LOCK):
        schema_lock = DEFAULT_SCHEMA_LOCK

    if args.write_schema_lock:
        if not args.project:
            print(
                "repro: lint error: --write-schema-lock requires --project",
                file=sys.stderr,
            )
            return 2
        lock_path = schema_lock or DEFAULT_SCHEMA_LOCK
        project = build_project(args.paths, schema_lock_path=lock_path)
        write_lock(project, lock_path)
        print(f"schema lock -> {lock_path}")
        return 0

    only = [r.strip().upper() for r in args.rules.split(",")] if args.rules else []
    try:
        if args.project:
            result = lint_project(
                args.paths, only=only, schema_lock_path=schema_lock
            )
        else:
            result = lint_paths(args.paths, only=only)
    except (KeyError, OSError) as exc:
        print(f"repro: lint error: {exc}", file=sys.stderr)
        return 2

    baseline_path = args.baseline if args.baseline is not None else DEFAULT_BASELINE
    findings = result.sorted_findings()

    if args.write_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(
            f"baseline -> {baseline_path} "
            f"({len(findings)} grandfathered finding(s))"
        )
        return 0

    try:
        baseline = load_if_exists(baseline_path)
    except ValueError as exc:
        print(f"repro: lint error: {exc}", file=sys.stderr)
        return 2
    diff = baseline.subtract(findings)

    if args.fmt == "json":
        print(
            render_json(
                result,
                new_findings=diff.new,
                baselined=diff.matched,
                stale_baseline_entries=diff.stale,
            )
        )
    else:
        print(render_text(result, new_findings=diff.new, baselined=diff.matched))
        if diff.stale:
            print(
                f"note: {diff.stale} stale baseline entr(y/ies) no longer "
                f"match; re-run with --write-baseline to shrink {baseline_path}"
            )
    return 1 if diff.new else 0


def _parse_range_spec(text: str) -> Rect:
    parts = text.split(",")
    if len(parts) != 4:
        raise SystemExit(f"repro: error: bad --range {text!r} (want X1,Y1,X2,Y2)")
    try:
        x1, y1, x2, y2 = _finite_floats(parts)
        return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    except ValueError:
        raise SystemExit(f"repro: error: bad --range {text!r}") from None


def _parse_knn_spec(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(f"repro: error: bad --knn {text!r} (want X,Y,K)")
    try:
        point, k = Point(*_finite_floats(parts[:2])), int(parts[2])
        if k < 1:
            raise ValueError(k)
        return point, k
    except ValueError:
        raise SystemExit(f"repro: error: bad --knn {text!r}") from None


def _finite_floats(parts: List[str]) -> List[float]:
    """``parts`` as floats; ValueError if one is malformed, NaN or infinite."""
    values = [float(part) for part in parts]
    if not all(math.isfinite(value) for value in values):
        raise ValueError(f"not finite: {parts}")
    return values


def _format_delta(delta) -> str:
    parts = []
    if delta.entered:
        entered = ", ".join(f"{o}:{p:.2f}" for o, p in sorted(delta.entered.items()))
        parts.append(f"+[{entered}]")
    if delta.left:
        parts.append(f"-[{', '.join(delta.left)}]")
    if delta.updated:
        updated = ", ".join(f"{o}:{p:.2f}" for o, p in sorted(delta.updated.items()))
        parts.append(f"~[{updated}]")
    return f"[t={delta.second}] {delta.query_id} " + " ".join(parts)


def _occupancy_accuracy_provider(service, sim):
    """Per-room occupancy error vs live-simulation ground truth.

    Compares the service's expected per-room object mass (belief-table
    probabilities folded through each anchor's room) against the true
    per-room counts from the simulator, plus one combined hallway
    bucket. Returned fields merge into each epoch record's ``accuracy``
    section and feed the ``occupancy_error`` drift rule.
    """
    from repro.sim.ground_truth import HALLWAY_REGION, true_room_counts

    hall_key = HALLWAY_REGION

    def provider():
        true_counts = true_room_counts(service.plan, sim.true_positions())
        estimated = {key: 0.0 for key in true_counts}
        table = service.snapshot().table
        for object_id in table.objects():
            for ap_id, prob in table.distribution_of(object_id).items():
                room_id = service.anchor_index.anchor(ap_id).room_id
                key = room_id if room_id in estimated else hall_key
                estimated[key] += prob
        errors = [
            abs(estimated[key] - true_counts[key]) for key in true_counts
        ]
        return {
            "occupancy_error_mean": round(sum(errors) / len(errors), 9),
            "occupancy_rooms_compared": len(errors),
        }

    return provider


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.io import load_deployment, load_floorplan
    from repro.service import (
        BoundedQueue,
        CheckpointCompatibilityError,
        EpochScheduler,
        LiveSimSource,
        ReplaySource,
        SourceFeeder,
        TrackingService,
        restore_from_file,
    )

    tracing = _start_trace(args)
    # --metrics-port, --events and --alerts-log all need the registry
    # recording; turn observability on for the run even without --trace.
    # None of them touches the RNG streams, so replay output stays
    # bit-identical either way.
    obs_session = tracing
    if (
        args.metrics_port is not None or args.events or args.alerts_log
    ) and not obs.enabled():
        obs.enable()
        obs_session = True
    plan = load_floorplan(args.plan) if args.plan else None
    readers = load_deployment(args.deployment) if args.deployment else None
    tags = None
    if args.tags:
        with open(args.tags, encoding="utf-8") as handle:
            tags = {str(k): str(v) for k, v in _json.load(handle).items()}

    if args.restore:
        try:
            service = restore_from_file(
                args.restore,
                plan=plan,
                readers=readers,
                use_cache=not args.no_cache,
                filter_backend=args.filter_backend,
            )
        except CheckpointCompatibilityError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        print(
            f"restored from {args.restore}: tick {service.ticks}, "
            f"second {service.last_second}, "
            f"filter {service.executor.filter_backend.name}"
        )
        if service.analytics is not None:
            print(
                f"analytics resumed: {service.analytics.epochs} epochs, "
                f"{service.analytics.updates} updates"
            )
    else:
        config = DEFAULT_CONFIG
        if args.seed is not None:
            config = config.with_overrides(seed=args.seed)
        if args.live:
            config = config.with_overrides(num_objects=args.objects)
        service = TrackingService(
            config,
            plan=plan,
            readers=readers,
            tag_to_object=tags,
            use_cache=not args.no_cache,
            use_pruning=args.prune,
            seed=args.seed,
            filter_backend=args.filter_backend or DEFAULT_BACKEND,
        )

    if args.analytics:
        service.enable_analytics()
    analytics_engine = service.analytics

    on_delta = None if args.quiet else lambda delta: print(_format_delta(delta))
    existing = {sub.session_id for sub in service.sessions.subscriptions()}
    if on_delta is not None:
        for session_id in existing:
            service.sessions.attach_callback(session_id, on_delta)
    for index, spec in enumerate(args.ranges):
        session_id = f"range-{index}"
        if session_id not in existing:
            service.sessions.subscribe_range(
                _parse_range_spec(spec), callback=on_delta, session_id=session_id
            )
    for index, spec in enumerate(args.knns):
        session_id = f"knn-{index}"
        if session_id not in existing:
            point, k = _parse_knn_spec(spec)
            service.sessions.subscribe_knn(
                point, k, callback=on_delta, session_id=session_id
            )
    for sub in service.sessions.subscriptions():
        print(f"standing query {sub.describe()}")

    if args.live:
        from repro.sim import Simulation

        seconds = args.seconds if args.seconds is not None else 60
        sim = Simulation(service.config, plan=service.plan,
                         readers=service.readers, build_symbolic=False)
        if service.last_second is not None:
            sim.run_until(service.last_second)
        source = LiveSimSource(sim, seconds)
    else:
        source = ReplaySource.from_file(
            args.replay,
            start_after=service.last_second,
            max_seconds=args.seconds,
        )

    queue = BoundedQueue(maxsize=args.queue_size)
    feeder = SourceFeeder(source, queue)

    event_writer = None
    event_recorder = None
    alert_writer = None
    alert_engine = None
    if obs_session:
        # Drift alerting rides on the epoch records: the recorder always
        # runs during an observability session (writer-less when no
        # --events file was asked for), and every record feeds the rules.
        from repro.obs.alerts import ALERTS_FORMAT, ALERTS_VERSION, AlertEngine
        from repro.obs.events import EpochEventRecorder, EpochEventWriter

        if args.events:
            event_writer = EpochEventWriter(
                args.events,
                rotate_mb=args.events_rotate_mb,
                keep=args.events_keep,
            )
        if args.alerts_log:
            alert_writer = EpochEventWriter(
                args.alerts_log, fmt=ALERTS_FORMAT, version=ALERTS_VERSION
            )
        alert_engine = AlertEngine(writer=alert_writer)
        accuracy_provider = (
            _occupancy_accuracy_provider(service, sim) if args.live else None
        )
        event_recorder = EpochEventRecorder(
            event_writer,
            obs.registry(),
            accuracy_provider=accuracy_provider,
            analytics_provider=(
                analytics_engine.epoch_delta
                if analytics_engine is not None
                else None
            ),
        )

    scheduler = EpochScheduler(
        service,
        queue,
        tick_interval=(1.0 / args.tick_rate) if args.tick_rate > 0 else 0.0,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        event_recorder=event_recorder,
        alert_engine=alert_engine,
    )

    metrics_server = None
    if args.metrics_port is not None:
        from repro.obs.expo import MetricsServer

        metrics_server = MetricsServer(
            snapshot_provider=obs.snapshot,
            health_provider=scheduler.health,
            ready_provider=scheduler.ready,
            alerts_provider=(
                alert_engine.summary if alert_engine is not None else None
            ),
            analytics_provider=(
                analytics_engine.summary
                if analytics_engine is not None
                else None
            ),
            host=args.metrics_host,
            port=args.metrics_port,
        )
        bound = metrics_server.start()
        print(f"metrics on http://{args.metrics_host}:{bound}/metrics")
        if analytics_engine is not None:
            print(
                f"analytics on http://{args.metrics_host}:{bound}/analytics"
            )

    feeder.start()
    try:
        ticks = scheduler.run()
    finally:
        queue.close()
        feeder.join(timeout=10.0)
        service.close()
        if metrics_server is not None:
            metrics_server.stop()
        if event_writer is not None:
            event_writer.close()
        if alert_writer is not None:
            alert_writer.close()
    if event_writer is not None:
        rotated = (
            f", {event_writer.rotations} rotation(s)"
            if event_writer.rotations
            else ""
        )
        print(
            f"event log -> {args.events} "
            f"({event_writer.records_written} epoch records{rotated})"
        )
    if alert_writer is not None:
        print(
            f"alert log -> {args.alerts_log} "
            f"({alert_writer.records_written} alert event(s))"
        )
    if alert_engine is not None:
        for alert in alert_engine.active():
            print(
                f"active alert [{alert['severity']}] {alert['rule']}: "
                f"{alert['description']}"
            )
    if feeder.error is not None:
        print(f"repro: ingest error: {feeder.error}", file=sys.stderr)
        return 1

    snap = service.snapshot()
    delivered = sum(s.deltas_delivered for s in service.sessions.subscriptions())
    print(
        f"served {ticks} ticks (through second {service.last_second}), "
        f"tracking {len(snap.table.objects())} objects, "
        f"{len(service.sessions)} standing queries, "
        f"{delivered} deltas delivered"
    )
    if analytics_engine is not None and analytics_engine.epochs:
        busiest = ", ".join(
            f"{region}={score:.2f}"
            for region, score in analytics_engine.top_regions(3)
        )
        print(
            f"analytics: {analytics_engine.epochs} epochs, "
            f"{analytics_engine.updates} updates, "
            f"{analytics_engine.flow_events} flow events; busiest {busiest}"
        )
    if args.checkpoint and scheduler.checkpoints_written:
        print(f"checkpoint -> {args.checkpoint}")
    if tracing:
        _finish_trace(
            args,
            meta={
                "command": "serve",
                "ticks": ticks,
                "filter": service.executor.filter_backend.name,
            },
        )
    elif obs_session:
        obs.disable()
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    del args
    from repro.sim import Simulation, true_knn_result, true_range_result

    config = DEFAULT_CONFIG.with_overrides(num_objects=25, seed=3)
    sim = Simulation(config)
    print("simulating 90 seconds ...")
    sim.run_for(90)

    window = Rect(4, 0, 30, 12)
    result = sim.pf_engine.range_query(window, sim.now)
    truth = true_range_result(window, sim.true_positions())
    print(f"\nrange query {window}")
    print(f"  truth: {sorted(truth)}")
    print(f"  top answers: {result.top(5)}")

    point = Point(30, 5)
    knn = sim.pf_engine.knn_query(point, 3, sim.now)
    knn_truth = true_knn_result(point, sim.true_locations(), sim.graph, 3)
    print(f"\n3NN at {point}")
    print(f"  truth: {knn_truth}")
    print(f"  answers: {knn.ranked()[:5]}")
    return 0


def _cmd_analytics(args: argparse.Namespace) -> int:
    return {
        "serve": _cmd_analytics_serve,
        "window": _cmd_analytics_window,
        "report": _cmd_analytics_report,
    }[args.analytics_command](args)


def _cmd_analytics_serve(args: argparse.Namespace) -> int:
    """Live simulation with the analytics engine attached, synchronously.

    Drives the tracking service tick by tick (no feeder thread, no
    scheduler: analytics needs nothing time-based), tracks ground truth
    alongside, then prints the aggregate summary and the accuracy scores.
    """
    import json as _json

    from repro.analytics import TruthTracker, accuracy_summary
    from repro.analytics.report import render_accuracy, render_summary
    from repro.service import LiveSimSource, TrackingService
    from repro.sim import Simulation

    # Enable observability for the run only (the recorder needs the
    # registry); leave it exactly as found so later commands in the
    # same process see a clean slate.
    obs_session = False
    if args.events and not obs.enabled():
        obs.enable()
        obs_session = True
    config = DEFAULT_CONFIG.with_overrides(
        seed=args.seed, num_objects=args.objects
    )
    with TrackingService(
        config, seed=args.seed, filter_backend=args.filter_backend
    ) as service:
        engine = service.enable_analytics()
        truth = TruthTracker(service.plan)
        sim = Simulation(
            service.config,
            plan=service.plan,
            readers=service.readers,
            build_symbolic=False,
        )
        event_writer = None
        recorder = None
        if args.events:
            from repro.obs.events import EpochEventRecorder, EpochEventWriter

            event_writer = EpochEventWriter(args.events)
            recorder = EpochEventRecorder(
                event_writer,
                obs.registry(),
                analytics_provider=engine.epoch_delta,
            )
        try:
            for tick, batch in enumerate(
                LiveSimSource(sim, args.seconds).batches(), start=1
            ):
                service.process_batch(batch)
                truth.observe(batch.second, sim.true_positions())
                if recorder is not None:
                    recorder.record_epoch(
                        second=batch.second, tick=tick, wall_seconds=0.0
                    )
        finally:
            if event_writer is not None:
                event_writer.close()
        accuracy = accuracy_summary(engine, truth)
        print(render_summary(engine.summary()))
        print(render_accuracy(accuracy))
        if event_writer is not None:
            print(
                f"event log -> {args.events} "
                f"({event_writer.records_written} epoch records)"
            )
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                _json.dump(
                    {"summary": engine.summary(), "accuracy": accuracy},
                    handle,
                    indent=2,
                    sort_keys=True,
                )
                handle.write("\n")
            print(f"analytics document -> {args.out}")
    if obs_session:
        obs.disable()
    return 0


def _load_analytics_records(path: str):
    from repro.obs.events import read_all_events

    try:
        _, records = read_all_events(path)
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"repro: error: {exc}")
    return records


def _cmd_analytics_window(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analytics import window_report
    from repro.analytics.report import render_window

    records = _load_analytics_records(args.events)
    report = window_report(records, t0=args.t0, t1=args.t1, region=args.room)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_window(report))
    if not report["epochs"]:
        print(
            "note: no analytics epochs matched — was the log recorded "
            "with serve --analytics --events?"
        )
    return 0


def _cmd_analytics_report(args: argparse.Namespace) -> int:
    import json as _json

    from repro.analytics import window_report
    from repro.analytics.report import render_window

    records = _load_analytics_records(args.events)
    report = window_report(records)
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_window(report))
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Partitioned multi-tenant tracking behind the HTTP query gateway."""
    import time as _time

    from repro.gateway import (
        GatewayCompatibilityError,
        GatewayCoordinator,
        GatewayServer,
        TenantWorld,
        demo_tenants,
        load_tenants,
        restore_coordinator,
        save_checkpoint,
    )
    from repro.service import LiveSimSource
    from repro.sim import Simulation

    if args.tenants:
        try:
            specs = load_tenants(args.tenants)
        except ValueError as exc:
            raise SystemExit(f"repro: error: {exc}") from None
    else:
        specs = demo_tenants(
            args.demo_tenants,
            base_seed=args.base_seed,
            num_objects=args.objects,
            plan=args.plan,
        )

    obs_session = args.http_port is not None or bool(args.trace)
    if obs_session and not obs.enabled():
        obs.enable()

    if args.restore:
        try:
            coordinator = restore_coordinator(
                args.restore,
                tenants=specs if args.tenants else None,
                num_partitions=args.partitions,
                transport=args.transport,
                queue_depth=args.queue_depth,
                telemetry_interval=args.telemetry_interval,
            )
        except GatewayCompatibilityError as exc:
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        specs = list(coordinator.tenants.values())
        print(
            f"restored {len(specs)} tenant(s) from {args.restore} "
            f"at {coordinator.num_partitions} partition(s)"
        )
    else:
        coordinator = GatewayCoordinator(
            specs,
            num_partitions=args.partitions if args.partitions is not None else 2,
            transport=args.transport,
            queue_depth=args.queue_depth,
            telemetry_interval=args.telemetry_interval,
        )
    server = None
    exit_code = 0
    try:
        if obs.enabled():
            coordinator.enable_alerts()
        if args.analytics:
            coordinator.enable_analytics()
        for spec in specs:
            for range_spec in args.range:
                coordinator.subscribe_range(
                    spec.tenant_id, _parse_range_spec(range_spec)
                )
            for knn_spec in args.knn:
                point, k = _parse_knn_spec(knn_spec)
                coordinator.subscribe_knn(spec.tenant_id, point, k)

        if args.http_port is not None:
            server = GatewayServer(
                coordinator, host=args.http_host, port=args.http_port
            ).start()
            print(f"gateway http on {server.url}")

        # Per-tenant live sources; a restored tenant's simulation is
        # replayed to its checkpointed second first, so the stream
        # resumes exactly where the checkpoint stopped.
        sources = {}
        for spec in specs:
            world = TenantWorld(spec)
            sim = Simulation(
                world.config, plan=world.plan, readers=world.readers,
                build_symbolic=False,
            )
            health = coordinator.health()
            last = health["tenants"][spec.tenant_id]["last_second"]
            if last is not None:
                sim.run_until(last)
            sources[spec.tenant_id] = iter(
                LiveSimSource(sim, args.seconds).batches()
            )

        streamed = 0
        for _step in range(args.seconds):
            for spec in specs:
                coordinator.submit_tick(spec.tenant_id, next(sources[spec.tenant_id]))
            for _spec in specs:
                tenant_id, _second, deltas = coordinator.collect_tick()
                if not args.quiet:
                    for delta in deltas:
                        if not delta.is_empty:
                            print(f"{tenant_id} {_format_delta(delta)}")
            streamed += 1
            if (
                args.checkpoint
                and args.checkpoint_interval
                and streamed % args.checkpoint_interval == 0
            ):
                save_checkpoint(coordinator, args.checkpoint)
                if not args.quiet:
                    print(f"checkpoint -> {args.checkpoint}")
        if args.checkpoint:
            save_checkpoint(coordinator, args.checkpoint)
            print(f"checkpoint -> {args.checkpoint}")

        health = coordinator.health()
        print(
            f"served {streamed} second(s) x {len(specs)} tenant(s) over "
            f"{coordinator.num_partitions} partition(s) "
            f"[{health['status']}]"
        )
        for tenant_id, record in sorted(health["tenants"].items()):  # type: ignore[union-attr]
            line = (
                f"  {tenant_id}: ticks={record['ticks']} "
                f"last_second={record['last_second']} "
                f"sessions={record['open_sessions']}"
            )
            if record["partial_ticks"]:
                line += f" partial={record['partial_ticks']}"
            if args.analytics:
                summary = coordinator.analytics_summary(tenant_id)
                line += f" analytics_epochs={summary['epochs']}"
            print(line)
        if args.trace:
            from repro.obs.report import write_json

            coordinator.poll_telemetry()
            document = coordinator.fleet_snapshot(
                meta={
                    "command": "gateway",
                    "tenants": len(specs),
                    "partitions": coordinator.num_partitions,
                    "transport": coordinator.transport,
                    "seconds": args.seconds,
                }
            )
            write_json(document, args.trace)
            print(f"fleet trace -> {args.trace}")
        if server is not None and args.linger > 0:
            _time.sleep(args.linger)
    finally:
        if server is not None:
            server.stop()
        coordinator.close()
        if obs_session:
            obs.disable()
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via console script
    sys.exit(main())
