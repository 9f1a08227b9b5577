"""Checkpoint / restore: warm restart for the tracking service.

A checkpoint is one JSON document capturing the mutable state of a
:class:`~repro.service.tracking.TrackingService` after some tick:

* the collector's retained device runs, generations, and tag registry,
* the filter backend's name,
* all standing-query sessions plus the continuous monitor's diff
  baseline (so the first resumed tick reports true deltas, not a replay
  of the whole result set),
* the analytics aggregates, if any,
* the tick counter, last processed second, and RNG seed.

It holds no filter state. Every filter draw is keyed by ``(seed,
object, stepped second)``, so a cloud is a function of its history and
the second it reaches, and the particle cache only saves work (paper
Section 4.5). A restore re-publishes the saved tick by replaying each
tracked object's history, which refills the cache; ``checkpoint →
restore → resume`` is tick-for-tick identical to an uninterrupted run
(asserted in ``tests/test_service_checkpoint.py``). A change to the draw
scheme changes what a replay computes, so it must bump
:data:`CHECKPOINT_VERSION`.

Version history: version 1 predates pluggable filter backends; version 2
records the backend name and its filter state version; version 3 drops
the collector's ENTER/LEAVE event log, which nothing read; version 4
drops the cached filter states and the state version. Version-2 and
version-3 files are migrated on load (:func:`migrate_state`) and resume
only when they recorded this build's keyed-draw state version
(:data:`KEYED_DRAW_STATE_VERSIONS`, checked by
:func:`check_filter_state`): their sessions and analytics were built
from tables of that draw scheme. A version-1 file predates keyed draws
and is refused on load. Restoring onto a service running a *different*
backend raises :class:`CheckpointCompatibilityError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.config import SimulationConfig
from repro.filters import available_backends

if TYPE_CHECKING:
    from repro.floorplan.plan import FloorPlan
    from repro.rfid.reader import RFIDReader
    from repro.service.tracking import TrackingService

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT = "repro-service-checkpoint"
CHECKPOINT_VERSION = 4

#: The filter state version a version-2 or version-3 file must record for
#: each backend to be resumed: the states of this build's keyed draws. An
#: older particle state was stepped on per-tick generator streams, so the
#: tables its sessions and analytics saw are not this build's.
KEYED_DRAW_STATE_VERSIONS = {"particle": 2, "symbolic": 1}


class CheckpointCompatibilityError(ValueError):
    """A checkpoint cannot be restored onto this service configuration."""


#: Config fields of a removed filter backend. Checkpoints written before
#: its removal still carry them; they are dropped on read, and any other
#: unknown config key is refused by :func:`checkpoint_config`.
RETIRED_CONFIG_KEYS = (
    "kalman_max_hypotheses",
    "kalman_accel_std",
    "kalman_merge_distance",
)


def checkpoint_config(recorded: dict) -> SimulationConfig:
    """The :class:`SimulationConfig` a checkpoint's ``config`` record holds.

    Keys in :data:`RETIRED_CONFIG_KEYS` are dropped; any other key this
    build's config does not have raises
    :class:`CheckpointCompatibilityError` naming it.
    """
    known = {field.name for field in fields(SimulationConfig)}
    unknown = sorted(
        key for key in recorded if key not in known and key not in RETIRED_CONFIG_KEYS
    )
    if unknown:
        raise CheckpointCompatibilityError(
            f"checkpoint config has key(s) {', '.join(map(repr, unknown))}, "
            "which this build does not know; re-create the checkpoint"
        )
    return SimulationConfig(
        **{key: value for key, value in recorded.items() if key in known}
    )


def write_json_atomic(path: PathLike, document: object) -> None:
    """Write ``json.dumps(document)`` to ``path`` via a temp file + rename.

    Readers see either the old complete file or the new one, never a
    torn write. Service and gateway checkpoints both go through here.
    """
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document))
    os.replace(tmp_path, path)


def save_checkpoint(service: TrackingService, path: PathLike) -> None:
    """Write the service's full state to ``path`` (atomic rename)."""
    document = {
        "format": CHECKPOINT_FORMAT,
        "checkpoint_version": CHECKPOINT_VERSION,
        "state": service.state_dict(),
    }
    write_json_atomic(path, document)


def migrate_state(state: dict, version: int) -> dict:
    """Lift a version-2 or version-3 service state to version 4, in place.

    Version 3 dropped the collector's ENTER/LEAVE event log, which no
    reader ever consumed; version 4 drops the cached filter states. The
    filter record keeps its ``state_version`` for
    :func:`check_filter_state`. Gateway checkpoints hold one service
    state per tenant and migrate each of them through here.
    """
    if version == 2:
        state["collector"].pop("events", None)
    state.pop("cache", None)
    return state


def load_checkpoint(path: PathLike) -> dict:
    """Read and validate a checkpoint; returns the raw state dict.

    Version-2 and version-3 documents are migrated to the current layout
    (:func:`migrate_state`); version-1 documents are refused.
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
        raise CheckpointCompatibilityError(
            f"{path}: checkpoint version 1 carries particle states of state "
            f"version 1, but this build speaks version "
            f"{KEYED_DRAW_STATE_VERSIONS['particle']}; re-create the checkpoint"
        )
    if version in (2, 3):
        return migrate_state(state, version)
    if version != CHECKPOINT_VERSION:
        raise CheckpointCompatibilityError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION}); re-create the checkpoint"
        )
    return state


def check_filter_state(state: dict) -> None:
    """Refuse a service state this build cannot resume.

    The recorded backend must exist here. A state migrated from version
    2 or 3 must also record its backend's keyed-draw state version
    (:data:`KEYED_DRAW_STATE_VERSIONS`): a particle state of version 1
    was stepped on per-tick generator streams, so its sessions and
    analytics would not continue the run that wrote it.
    """
    recorded = state.get("filter", {"backend": "particle", "state_version": 1})
    name = str(recorded.get("backend", "particle"))
    if name not in available_backends():
        raise CheckpointCompatibilityError(
            f"checkpoint was produced by filter backend {name!r}, "
            f"which this build does not have (it has "
            f"{', '.join(available_backends())}); re-create the checkpoint"
        )
    if "state_version" not in recorded:
        return
    version = int(recorded["state_version"])
    if version != KEYED_DRAW_STATE_VERSIONS[name]:
        raise CheckpointCompatibilityError(
            f"checkpoint carries {name!r} states at version {version}, but "
            f"this build speaks version {KEYED_DRAW_STATE_VERSIONS[name]}; "
            "re-create the checkpoint"
        )


def restore_service(
    state: dict,
    plan: Optional[FloorPlan] = None,
    readers: Optional[Sequence[RFIDReader]] = None,
    use_cache: bool = True,
    filter_backend: Optional[str] = None,
) -> TrackingService:
    """Build a :class:`TrackingService` resumed from a checkpoint state.

    The world geometry (floor plan, deployment) is not serialized — pass
    the same ``plan``/``readers`` the original service ran with (or rely
    on the paper defaults, which are deterministic). The state records no
    placement: determinism is per-object, so a checkpoint resumes the
    same way whatever process layout wrote it.

    The filter backend is **not** free to change: the sessions and
    analytics were built from that backend's tables.
    ``filter_backend=None`` adopts the checkpoint's recorded backend; a
    recorded backend this build does not have, a different name, or an
    old file of another draw scheme is refused with
    :class:`CheckpointCompatibilityError`. ``use_cache`` changes speed,
    not answers.
    Config fields in :data:`RETIRED_CONFIG_KEYS` are dropped; any other
    unknown config field is refused the same way.
    """
    from repro.service.tracking import TrackingService

    check_filter_state(state)
    recorded = str(state.get("filter", {}).get("backend", "particle"))
    if filter_backend is None:
        filter_backend = recorded
    config = checkpoint_config(state["config"])
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
    use_cache: bool = True,
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
