"""The epoch tick loop.

Pulls reading batches off the ingest queue and drives one service tick
per batch: collector ingest → filter step → snapshot publish →
session delta fan-out. Wall-clock pacing is decoupled from the pipeline
through an injectable clock, so tests (and full-speed replays) run the
identical code path with no real sleeping.

The scheduler is also the home of the service's operational vitals: it
timestamps every tick and checkpoint on its injectable clock, feeds the
optional per-epoch event log (:mod:`repro.obs.events`), and assembles
the ``/healthz`` document (epoch lag, queue depth, last-checkpoint age,
filter backend) served by ``repro serve --metrics-port``.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol

import repro.obs as obs
from repro.service.ingest import BoundedQueue

if TYPE_CHECKING:
    from repro.obs.alerts import AlertEngine
    from repro.obs.events import EpochEventRecorder
    from repro.service.tracking import TrackingService


class Clock(Protocol):
    """What the scheduler needs from a time source: read it, wait on it."""

    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class SystemClock:
    """Real monotonic time (production pacing)."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class ManualClock:
    """Deterministic clock for tests: ``sleep`` just advances ``now``."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self.sleeps: List[float] = []

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            self.sleeps.append(seconds)
            self._now += seconds

    def advance(self, seconds: float) -> None:
        self._now += seconds


class EpochScheduler:
    """Drives a :class:`~repro.service.tracking.TrackingService` from a queue.

    ``tick_interval`` is the target wall-clock seconds per tick (0 means
    run flat out — the replay/benchmark mode). ``checkpoint_path`` plus
    ``checkpoint_interval`` N write a warm-restart checkpoint every N
    ticks (and a final one when the stream ends). ``event_recorder`` (an
    :class:`~repro.obs.events.EpochEventRecorder`) gets one
    ``record_epoch`` call per processed batch; ``alert_engine`` (an
    :class:`~repro.obs.alerts.AlertEngine`) receives each epoch record
    for online drift detection (requires an event recorder).
    """

    def __init__(
        self,
        service: TrackingService,
        queue: BoundedQueue,
        tick_interval: float = 0.0,
        clock: Optional[Clock] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 0,
        event_recorder: Optional[EpochEventRecorder] = None,
        alert_engine: Optional[AlertEngine] = None,
    ) -> None:
        if tick_interval < 0:
            raise ValueError("tick_interval must be non-negative")
        if checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        self.service = service
        self.queue = queue
        self.tick_interval = tick_interval
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.event_recorder = event_recorder
        self.alert_engine = alert_engine
        self.ticks_run = 0
        self.checkpoints_written = 0
        self.last_tick_at: Optional[float] = None
        self.last_tick_seconds: Optional[float] = None
        self.last_checkpoint_at: Optional[float] = None

    def run(self, max_ticks: Optional[int] = None) -> int:
        """Consume batches until the queue closes (or ``max_ticks``).

        Returns the number of ticks processed by this call.
        """
        from repro.service.checkpoint import save_checkpoint

        processed = 0
        while max_ticks is None or processed < max_ticks:
            batch = self.queue.get()
            if batch is None:
                break
            started = self.clock.now()
            self.service.process_batch(batch)
            finished = self.clock.now()
            elapsed = finished - started
            obs.observe_seconds("service.tick_latency", elapsed)
            obs.add("service.ticks")
            processed += 1
            self.ticks_run += 1
            self.last_tick_at = finished
            self.last_tick_seconds = elapsed
            if self.event_recorder is not None:
                record = self.event_recorder.record_epoch(
                    second=batch.second,
                    tick=self.ticks_run,
                    wall_seconds=elapsed,
                )
                if self.alert_engine is not None:
                    self.alert_engine.observe_epoch(record)
            if (
                self.checkpoint_path is not None
                and self.checkpoint_interval > 0
                and self.ticks_run % self.checkpoint_interval == 0
            ):
                save_checkpoint(self.service, self.checkpoint_path)
                self.checkpoints_written += 1
                self.last_checkpoint_at = self.clock.now()
            if self.tick_interval > 0:
                self.clock.sleep(self.tick_interval - elapsed)
        if self.checkpoint_path is not None and processed:
            save_checkpoint(self.service, self.checkpoint_path)
            self.checkpoints_written += 1
            self.last_checkpoint_at = self.clock.now()
        return processed

    # ------------------------------------------------------------------
    # operational vitals (the /healthz and /readyz providers)
    # ------------------------------------------------------------------
    def ready(self) -> bool:
        """Ready once at least one tick has been published."""
        return self.ticks_run > 0

    def health(self, stall_after: Optional[float] = None) -> Dict[str, object]:
        """The ``/healthz`` document: lag, queue, checkpoint age, backend.

        ``stall_after`` (seconds) marks the service degraded when the
        last published tick is older than that; by default a quiet loop
        (e.g. a drained replay) still reports ok.
        """
        now = self.clock.now()
        epoch_lag = None if self.last_tick_at is None else now - self.last_tick_at
        checkpoint_age = (
            None if self.last_checkpoint_at is None
            else now - self.last_checkpoint_at
        )
        status = "ok"
        if stall_after is not None and epoch_lag is not None and epoch_lag > stall_after:
            status = "stalled"
        return {
            "status": status,
            "ticks": self.ticks_run,
            "last_second": self.service.last_second,
            "epoch_lag_seconds": epoch_lag,
            "last_tick_seconds": self.last_tick_seconds,
            "queue_depth": len(self.queue),
            "queue_capacity": self.queue.maxsize,
            "checkpoint_age_seconds": checkpoint_age,
            "checkpoints_written": self.checkpoints_written,
            "tracked_objects": len(self.service.snapshot().table.objects()),
            "standing_queries": len(self.service.sessions),
            "filter_backend": self.service.executor.filter_backend.name,
            "active_alerts": (
                len(self.alert_engine.active())
                if self.alert_engine is not None
                else None
            ),
        }
