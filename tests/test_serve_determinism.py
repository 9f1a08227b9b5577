"""Telemetry must never change what the service computes.

The operational layer added around the epoch loop — labeled metrics, the
/metrics scrape thread, and the per-epoch event log — is strictly
observational: none of it reads an RNG stream or reorders work. These
tests replay the same recorded log with telemetry off and with all of it
on, and require bit-identical tracking tables and query answers.
"""

import pytest

from repro import obs
from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.obs.events import EpochEventRecorder, EpochEventWriter, read_events
from repro.obs.expo import MetricsServer
from repro.service import (
    BoundedQueue,
    EpochScheduler,
    ReplaySource,
    SourceFeeder,
    TrackingService,
)
from repro.service.scheduler import ManualClock
from repro.sim import Simulation

SEED = 23
SECONDS = 8


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


def _recorded_log():
    config = DEFAULT_CONFIG.with_overrides(
        num_objects=6, seed=SEED, observability=False
    )
    sim = Simulation(config, build_symbolic=False)
    readings = []
    for _ in range(SECONDS):
        readings.extend(sim.step())
    return config, readings


def _replay(config, readings, telemetry, tmp_path=None):
    """Run the full scheduler loop; returns (table rows, query answers)."""
    writer = None
    server = None
    if telemetry:
        obs.enable()
        writer = EpochEventWriter(str(tmp_path / "epochs.jsonl"))
    service = TrackingService(config, seed=SEED)
    queue = BoundedQueue(maxsize=4)
    feeder = SourceFeeder(ReplaySource(readings), queue)
    scheduler = EpochScheduler(
        service,
        queue,
        clock=ManualClock(),
        event_recorder=(
            EpochEventRecorder(writer, obs.registry()) if writer else None
        ),
    )
    if telemetry:
        server = MetricsServer(
            snapshot_provider=obs.snapshot,
            health_provider=scheduler.health,
            ready_provider=scheduler.ready,
        )
        server.start()
    feeder.start()
    try:
        scheduler.run()
        table = service.snapshot().table
        rows = {
            obj: sorted(table.distribution_of(obj).items())
            for obj in table.objects()
        }
        range_answer = sorted(
            service.query_range(Rect(0, 0, 20, 12)).probabilities.items()
        )
        knn_answer = sorted(
            service.query_knn(Point(18, 6), 3).probabilities.items()
        )
    finally:
        queue.close()
        feeder.join(timeout=10.0)
        service.close()
        if server is not None:
            server.stop()
        if writer is not None:
            writer.close()
        if telemetry:
            obs.disable()
    return rows, range_answer, knn_answer


def test_event_log_and_metrics_server_leave_results_bit_identical(tmp_path):
    config, readings = _recorded_log()
    plain = _replay(config, readings, telemetry=False)
    telemetered = _replay(config, readings, telemetry=True, tmp_path=tmp_path)
    assert plain == telemetered

    # ... and the telemetry actually ran: one record per tick, with the
    # phase/accuracy payload populated.
    _, records = read_events(str(tmp_path / "epochs.jsonl"))
    assert len(records) == SECONDS
    assert any(r["accuracy"]["ess_mean"] is not None for r in records)
    assert all(r["phases"] for r in records)

