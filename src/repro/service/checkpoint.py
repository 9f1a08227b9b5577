"""Checkpoint / restore: warm restart for the tracking service.

A checkpoint is one JSON document capturing the full mutable state of a
:class:`~repro.service.tracking.TrackingService` after some tick:

* the collector's retained device runs, generations, and event log,
* every cached filter state, bit-exact (so resumed filter runs replay
  the same seconds from the same belief), tagged with the producing
  backend's name and state version,
* all standing-query sessions plus the continuous monitor's diff
  baseline (so the first resumed tick reports true deltas, not a replay
  of the whole result set),
* the tick counter, last processed second, and RNG seed.

Because every filter run's randomness is derived from
``(seed, second, object_id)`` — never from an evolving generator — no
generator state needs to be serialized, and
``checkpoint → restore → resume`` is tick-for-tick identical to an
uninterrupted run (asserted in ``tests/test_service_checkpoint.py``).

Version history: version 1 predates pluggable filter backends (its
caches are implicitly particle-filter states); version 2 records the
backend name and state version both at the service level and inside the
cache document. Version-1 files are migrated on load; restoring onto a
service running a *different* backend raises
:class:`CheckpointCompatibilityError` instead of mis-decoding.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.config import SimulationConfig

if TYPE_CHECKING:
    from repro.floorplan.plan import FloorPlan
    from repro.rfid.reader import RFIDReader
    from repro.service.tracking import TrackingService

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT = "repro-service-checkpoint"
CHECKPOINT_VERSION = 2


class CheckpointCompatibilityError(ValueError):
    """A checkpoint cannot be restored onto this service configuration."""


def write_text_atomic(path: PathLike, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename.

    Readers see either the old complete file or the new one, never a
    torn write. Service and gateway checkpoints both go through here.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp_path, path)


def save_checkpoint(service: TrackingService, path: PathLike) -> None:
    """Write the service's full state to ``path`` (atomic rename)."""
    document = {
        "format": CHECKPOINT_FORMAT,
        "checkpoint_version": CHECKPOINT_VERSION,
        "state": service.state_dict(),
    }
    write_text_atomic(path, json.dumps(document))


def _migrate_v1(state: dict) -> dict:
    """Lift a version-1 state dict to the version-2 layout.

    Version 1 only ever held particle-filter state: inject the implicit
    backend identity and wrap the flat cache mapping in the tagged
    ``entries`` envelope (renaming each entry's ``particles`` field to
    the generic ``state``).
    """
    state = dict(state)
    state.setdefault("filter", {"backend": "particle", "state_version": 1})
    cache = state.get("cache")
    if cache is not None and "entries" not in cache:
        state["cache"] = {
            "backend": "particle",
            "state_version": 1,
            "entries": {
                object_id: {
                    "state_second": entry["state_second"],
                    "device_generation": entry["device_generation"],
                    "state": entry["particles"],
                }
                for object_id, entry in cache.items()
            },
        }
    return state


def load_checkpoint(path: PathLike) -> dict:
    """Read and validate a checkpoint; returns the raw state dict.

    Version-1 documents (pre-backend) are transparently migrated to the
    current layout.
    """
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = document.get("checkpoint_version")
    state = document.get("state")
    if not isinstance(state, dict):
        raise ValueError(f"{path}: checkpoint state is not an object")
    if version == 1:
        return _migrate_v1(state)
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return state


def checkpoint_backend(state: dict) -> str:
    """The filter backend name a (migrated) checkpoint state was made with."""
    return str(state.get("filter", {}).get("backend", "particle"))


def restore_service(
    state: dict,
    plan: Optional[FloorPlan] = None,
    readers: Optional[Sequence[RFIDReader]] = None,
    use_cache: Optional[bool] = None,
    filter_backend: Optional[str] = None,
) -> TrackingService:
    """Build a :class:`TrackingService` resumed from a checkpoint state.

    The world geometry (floor plan, deployment) is not serialized — pass
    the same ``plan``/``readers`` the original service ran with (or rely
    on the paper defaults, which are deterministic). The state records no
    placement: determinism is per-object, so a checkpoint resumes the
    same way whatever process layout wrote it.

    The filter backend is **not** free to change: cached beliefs only
    decode under the backend that produced them. ``filter_backend=None``
    adopts the checkpoint's recorded backend; passing a different name
    raises :class:`CheckpointCompatibilityError` up front with a message
    naming both sides.
    """
    from repro.filters.registry import FACTORY
    from repro.service.tracking import TrackingService

    recorded = checkpoint_backend(state)
    if filter_backend is None:
        filter_backend = recorded
    elif filter_backend != recorded:
        raise CheckpointCompatibilityError(
            f"checkpoint was produced by filter backend {recorded!r} but "
            f"--filter {filter_backend} was requested; restore with "
            f"--filter {recorded} (or omit it) or re-create the checkpoint"
        )
    recorded_version = int(
        state.get("filter", {}).get("state_version", 1)
    )
    current_version = FACTORY.state_version_of(filter_backend)
    if recorded_version != current_version:
        raise CheckpointCompatibilityError(
            f"checkpoint carries {filter_backend!r} states at version "
            f"{recorded_version}, but this build speaks version "
            f"{current_version}; re-create the checkpoint"
        )

    config = SimulationConfig(**state["config"])
    if use_cache is None:
        use_cache = state["cache"] is not None
    service = TrackingService(
        config=config,
        plan=plan,
        readers=readers,
        tag_to_object=None if state["identity_tags"] else {},
        use_cache=use_cache,
        use_pruning=bool(state["use_pruning"]),
        seed=int(state["seed"]),
        filter_backend=filter_backend,
    )
    service.restore_state(state)
    return service


def restore_from_file(
    path: PathLike,
    plan: Optional[FloorPlan] = None,
    readers: Optional[Sequence[RFIDReader]] = None,
    use_cache: Optional[bool] = None,
    filter_backend: Optional[str] = None,
) -> TrackingService:
    """:func:`load_checkpoint` + :func:`restore_service` in one call."""
    return restore_service(
        load_checkpoint(path),
        plan=plan,
        readers=readers,
        use_cache=use_cache,
        filter_backend=filter_backend,
    )
