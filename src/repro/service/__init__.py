"""repro.service — online tracking and query serving.

Turns the offline batch pipeline into a continuously-running service
(paper Section 6 future work; Hui et al. 2022): raw RFID readings stream
in, every tracked object's filter is stepped once per epoch tick in one
serial loop, and standing range/kNN query sessions receive result deltas
as objects move. The layers compose left to right::

    ingest  ->  scheduler  ->  filter step  ->  sessions
      |             |              |               |
   bounded      epoch tick     per-object      standing-query
   replay /     loop, inj.     filtering,      subscriptions,
   live queue   clock          APtoObjHT       delta fan-out
                       \\
                        checkpoint (warm restart)

Scale-out is not this package's job: :mod:`repro.gateway` partitions
objects across worker processes, each running one service per tenant.

Determinism guarantee: every filter run draws from a private RNG stream
derived from ``(seed, second, object_id)`` via :mod:`repro.rng`, so the
published anchor-point tables, the delta streams, and the final particle
states do not depend on which objects share a process — a gateway run
at **any** partition count matches a single service — and a checkpoint
→ restore → resume sequence reproduces an uninterrupted run
tick-for-tick.
"""

from repro.service.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointCompatibilityError,
    load_checkpoint,
    restore_from_file,
    restore_service,
    save_checkpoint,
)
from repro.service.ingest import (
    BoundedQueue,
    LiveSimSource,
    ReadingBatch,
    ReplaySource,
    SourceFeeder,
)
from repro.service.scheduler import EpochScheduler, ManualClock, SystemClock
from repro.service.sessions import SessionManager, Subscription
from repro.service.tracking import ServiceSnapshot, TrackingService

__all__ = [
    "BoundedQueue",
    "CHECKPOINT_FORMAT",
    "EpochScheduler",
    "LiveSimSource",
    "ManualClock",
    "ReadingBatch",
    "ReplaySource",
    "ServiceSnapshot",
    "SessionManager",
    "SourceFeeder",
    "Subscription",
    "SystemClock",
    "TrackingService",
    "load_checkpoint",
    "CheckpointCompatibilityError",
    "restore_from_file",
    "restore_service",
    "save_checkpoint",
]
