"""Checkpoint / restore: warm restart for the tracking service.

A checkpoint is one JSON document capturing the full mutable state of a
:class:`~repro.service.tracking.TrackingService` after some tick:

* the collector's retained device runs, generations, and tag registry,
* every cached filter state, bit-exact (so resumed filter runs replay
  the same seconds from the same belief), tagged with the producing
  backend's name and state version,
* all standing-query sessions plus the continuous monitor's diff
  baseline (so the first resumed tick reports true deltas, not a replay
  of the whole result set),
* the tick counter, last processed second, and RNG seed.

Because every filter draw is keyed by ``(seed, object, stepped
second)`` — never drawn from an evolving generator — no generator state
needs to be serialized, and ``checkpoint → restore → resume`` is
tick-for-tick identical to an uninterrupted run (asserted in
``tests/test_service_checkpoint.py``).

Version history: version 1 predates pluggable filter backends (its
caches are implicitly particle-filter states); version 2 records the
backend name and state version both at the service level and inside the
cache document; version 3 drops the collector's ENTER/LEAVE event log,
which nothing read and which grew with every tick. Version-2 files are
migrated on load. A version-1 file holds particle states of state
version 1, which this build cannot resume (:func:`check_filter_state`),
so it is refused on load. Restoring onto a service running a *different*
backend, or states of another state version, raises
:class:`CheckpointCompatibilityError` instead of mis-decoding.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Union

from repro.config import SimulationConfig
from repro.filters import BACKENDS, available_backends

if TYPE_CHECKING:
    from repro.floorplan.plan import FloorPlan
    from repro.rfid.reader import RFIDReader
    from repro.service.tracking import TrackingService

PathLike = Union[str, "os.PathLike[str]"]

CHECKPOINT_FORMAT = "repro-service-checkpoint"
CHECKPOINT_VERSION = 3


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


#: Dicts and lists with more items than this are encoded this many at a time.
_JSON_SLICE = 32

#: Encoded characters buffered before each write to the file.
_JSON_FLUSH_CHARS = 1 << 16


def _json_pieces(value: object, encode: Callable[[object], str]) -> Iterator[str]:
    """``json.dumps(value)`` as consecutive pieces.

    A dict or list with more than :data:`_JSON_SLICE` items is encoded
    that many items per ``encode`` call; a smaller dict is walked key by
    key, so a large container nested in it is sliced too. Anything else
    is one ``encode`` call. Joined, the pieces equal ``json.dumps(value)``.
    """
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        if len(value) > _JSON_SLICE:
            items = list(value.items())
            for start in range(0, len(items), _JSON_SLICE):
                text = encode(dict(items[start:start + _JSON_SLICE]))
                yield ("{" if start == 0 else ", ") + text[1:-1]
            yield "}"
            return
        separator = "{"
        for key, item in value.items():
            yield separator + encode(key) + ": "
            separator = ", "
            yield from _json_pieces(item, encode)
        yield "}"
    elif isinstance(value, list) and len(value) > _JSON_SLICE:
        for start in range(0, len(value), _JSON_SLICE):
            text = encode(value[start:start + _JSON_SLICE])
            yield ("[" if start == 0 else ", ") + text[1:-1]
        yield "]"
    else:
        yield encode(value)


def write_json_atomic(path: PathLike, document: object) -> None:
    """Write ``json.dumps(document)`` to ``path`` via a temp file + rename.

    Readers see either the old complete file or the new one, never a
    torn write. The text is streamed (:func:`_json_pieces`) in batches,
    so the whole document never exists as one string; the file's bytes
    equal ``json.dumps(document)``. Service and gateway checkpoints both
    go through here.
    """
    encode = json.JSONEncoder().encode
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        batch: List[str] = []
        buffered = 0
        for piece in _json_pieces(document, encode):
            batch.append(piece)
            buffered += len(piece)
            if buffered >= _JSON_FLUSH_CHARS:
                handle.write("".join(batch))
                batch.clear()
                buffered = 0
        handle.write("".join(batch))
    os.replace(tmp_path, path)


def save_checkpoint(service: TrackingService, path: PathLike) -> None:
    """Write the service's full state to ``path`` (atomic rename)."""
    document = {
        "format": CHECKPOINT_FORMAT,
        "checkpoint_version": CHECKPOINT_VERSION,
        "state": service.state_dict(),
    }
    write_json_atomic(path, document)


def migrate_v2(state: dict) -> dict:
    """Lift a version-2 service state to the version-3 layout, in place.

    Version 2 carried the collector's ENTER/LEAVE event log, which no
    reader ever consumed; it is dropped. Gateway checkpoints hold one
    service state per tenant and migrate each of them through here.
    """
    state["collector"].pop("events", None)
    return state


def load_checkpoint(path: PathLike) -> dict:
    """Read and validate a checkpoint; returns the raw state dict.

    Version-2 documents (with the collector event log) are migrated to
    the current layout; version-1 documents are refused.
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
            f"{BACKENDS['particle'].state_version}; re-create the checkpoint"
        )
    if version == 2:
        return migrate_v2(state)
    if version != CHECKPOINT_VERSION:
        raise CheckpointCompatibilityError(
            f"{path}: unsupported checkpoint version {version!r} "
            f"(expected {CHECKPOINT_VERSION}); re-create the checkpoint"
        )
    return state


def check_filter_state(state: dict) -> None:
    """Refuse a service state whose filter states this build cannot resume.

    The recorded backend must exist here and speak the recorded state
    version: a particle state of version 1 was stepped on per-tick
    generator streams, not on keyed draws, so resuming it would not
    continue the run that wrote it.
    """
    recorded = state.get("filter", {"backend": "particle", "state_version": 1})
    name = str(recorded.get("backend", "particle"))
    if name not in available_backends():
        raise CheckpointCompatibilityError(
            f"checkpoint was produced by filter backend {name!r}, "
            f"which this build does not have (it has "
            f"{', '.join(available_backends())}); re-create the checkpoint"
        )
    version = int(recorded.get("state_version", 1))
    if version != BACKENDS[name].state_version:
        raise CheckpointCompatibilityError(
            f"checkpoint carries {name!r} states at version {version}, but "
            f"this build speaks version {BACKENDS[name].state_version}; "
            "re-create the checkpoint"
        )


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
    adopts the checkpoint's recorded backend; a recorded backend this
    build does not have, a different name, or an incompatible state
    version is refused with :class:`CheckpointCompatibilityError`.
    Config fields in :data:`RETIRED_CONFIG_KEYS` are dropped; any other
    unknown config field is refused the same way.
    """
    from repro.service.tracking import TrackingService

    check_filter_state(state)
    recorded = str(state.get("filter", {}).get("backend", "particle"))
    if filter_backend is None:
        filter_backend = recorded
    config = checkpoint_config(state["config"])
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
