"""Rolling gateway checkpoints: one file of per-tenant service states.

A gateway checkpoint is one JSON document, written by one atomic
rename (:func:`~repro.service.checkpoint.write_json_atomic`)::

    {"format": "repro-gateway-checkpoint", "checkpoint_version": 2,
     "state": GatewayCoordinator.state_dict()}

The state holds the ring (``partitions``, ``vnodes``), the tenant
specs, the gateway's per-tenant counters (``serving``) and, per tenant,
one :class:`~repro.service.tracking.TrackingService` state
(``services``): the workers' slices merged by object id at save time
(:func:`merge_tenant_states`, which refuses a cut that is not
coordinated), with the gateway's sessions and analytics in their
slots. That is the state a single-process service resumes from
(:func:`~repro.service.checkpoint.restore_service`), so placement is
not part of what persists. A crash mid-checkpoint leaves the previous
complete file in place: readers see the old cut or the new one.

Restoring at a *different* partition count splits each tenant's state
along the new ring (:func:`split_tenant_state`). Because filter
randomness derives from ``(seed, second, object_id)``, the re-placed
objects resume bit-identically.
"""

from __future__ import annotations

import copy
import json
import os
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.gateway.tenants import TenantSpec
from repro.gateway.transport import DEFAULT_QUEUE_DEPTH
from repro.service.checkpoint import write_json_atomic

if TYPE_CHECKING:
    from repro.gateway.coordinator import GatewayCoordinator

GATEWAY_CHECKPOINT_FORMAT = "repro-gateway-checkpoint"
GATEWAY_CHECKPOINT_VERSION = 2


class GatewayCompatibilityError(ValueError):
    """A gateway checkpoint cannot be restored as asked."""


def save_checkpoint(coordinator: GatewayCoordinator, path: str) -> None:
    """Write one coordinated cut of the whole deployment (atomic rename)."""
    document = {
        "format": GATEWAY_CHECKPOINT_FORMAT,
        "checkpoint_version": GATEWAY_CHECKPOINT_VERSION,
        "state": coordinator.state_dict(),
    }
    write_json_atomic(path, document)


def load_checkpoint(path: str) -> dict:
    """Read and validate a gateway checkpoint file; returns its state."""
    if os.path.isdir(path):
        raise GatewayCompatibilityError(
            f"{path} is a directory: gateway checkpoints are one file since "
            f"version {GATEWAY_CHECKPOINT_VERSION}; re-create the checkpoint "
            "with --checkpoint FILE"
        )
    if not os.path.exists(path):
        raise GatewayCompatibilityError(
            f"{path}: no such gateway checkpoint; re-create it with "
            "--checkpoint FILE"
        )
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if (
        not isinstance(document, dict)
        or document.get("format") != GATEWAY_CHECKPOINT_FORMAT
    ):
        raise GatewayCompatibilityError(
            f"{path}: not a {GATEWAY_CHECKPOINT_FORMAT} file; re-create "
            "it with --checkpoint FILE"
        )
    if document.get("checkpoint_version") != GATEWAY_CHECKPOINT_VERSION:
        raise GatewayCompatibilityError(
            f"{path}: checkpoint version "
            f"{document.get('checkpoint_version')!r} is not supported "
            f"(this build speaks {GATEWAY_CHECKPOINT_VERSION}); re-create "
            "the checkpoint"
        )
    state = document["state"]
    tenant_ids = sorted(record["tenant_id"] for record in state["tenants"])
    if not sorted(state["services"]) == sorted(state["serving"]) == tenant_ids:
        raise GatewayCompatibilityError(
            f"{path}: service states for {sorted(state['services'])} do not "
            f"match the tenant specs {tenant_ids}; re-create the checkpoint"
        )
    return state


# ----------------------------------------------------------------------
# merge / split: re-partitioning a tenant's service state
# ----------------------------------------------------------------------
_MERGE_INVARIANT_KEYS = (
    "version",
    "seed",
    "ticks",
    "last_second",
    "use_pruning",
    "identity_tags",
    "config",
    "filter",
)


def merge_tenant_states(states: Sequence[dict]) -> dict:
    """Merge one tenant's per-partition service states into one.

    All per-object parts (collector runs/generations/tags/events, cache
    entries) are disjoint across partitions, so the merge is a keyed
    union; scalar parts must agree or the cut was not coordinated.
    Mappings are rebuilt in sorted-key order and events sorted by
    ``(second, object_id)``, so the merged state is canonical —
    independent of how many partitions produced it.
    """
    if not states:
        raise ValueError("need at least one partition state")
    base = copy.deepcopy(states[0])
    for other in states[1:]:
        for key in _MERGE_INVARIANT_KEYS:
            if base.get(key) != other.get(key):
                raise GatewayCompatibilityError(
                    f"partition states disagree on {key!r} "
                    f"({base.get(key)!r} vs {other.get(key)!r}); "
                    "not a coordinated checkpoint"
                )
        collector = base["collector"]
        other_collector = other["collector"]
        if (
            collector["last_ingested_second"]
            != other_collector["last_ingested_second"]
        ):
            raise GatewayCompatibilityError(
                "partition states disagree on the last ingested second; "
                "not a coordinated checkpoint"
            )
        collector["runs"].update(other_collector["runs"])
        collector["generations"].update(other_collector["generations"])
        collector["tag_to_object"].update(other_collector["tag_to_object"])
        collector["events"].extend(other_collector["events"])
        if base.get("cache") is not None and other.get("cache") is not None:
            base["cache"]["entries"].update(other["cache"]["entries"])
    collector = base["collector"]
    collector["runs"] = {key: collector["runs"][key] for key in sorted(collector["runs"])}
    collector["generations"] = {
        key: collector["generations"][key] for key in sorted(collector["generations"])
    }
    collector["tag_to_object"] = {
        key: collector["tag_to_object"][key]
        for key in sorted(collector["tag_to_object"])
    }
    collector["events"] = sorted(
        collector["events"], key=lambda e: (e["second"], e["object_id"], e["kind"])
    )
    if base.get("cache") is not None:
        base["cache"]["entries"] = {
            key: base["cache"]["entries"][key]
            for key in sorted(base["cache"]["entries"])
        }
    return base


def split_tenant_state(merged: dict, keep: Callable[[str], bool]) -> dict:
    """One partition's slice of a merged state (objects where ``keep``)."""
    out = copy.deepcopy(merged)
    collector = out["collector"]
    collector["runs"] = {
        object_id: runs
        for object_id, runs in collector["runs"].items()
        if keep(object_id)
    }
    collector["generations"] = {
        object_id: generation
        for object_id, generation in collector["generations"].items()
        if keep(object_id)
    }
    collector["tag_to_object"] = {
        tag: object_id
        for tag, object_id in collector["tag_to_object"].items()
        if keep(object_id)
    }
    collector["events"] = [
        event for event in collector["events"] if keep(event["object_id"])
    ]
    if out.get("cache") is not None:
        out["cache"]["entries"] = {
            object_id: entry
            for object_id, entry in out["cache"]["entries"].items()
            if keep(object_id)
        }
    # Sessions and analytics live at the gateway, not in workers.
    out["sessions"] = None
    out["analytics"] = None
    return out


def restore_coordinator(
    path: str,
    tenants: Optional[Sequence[TenantSpec]] = None,
    num_partitions: Optional[int] = None,
    transport: str = "process",
    queue_depth: int = DEFAULT_QUEUE_DEPTH,
    shed_policy: str = "block",
    vnodes: Optional[int] = None,
    report_threshold: float = 0.05,
    min_change: float = 0.10,
    observability: Optional[bool] = None,
    telemetry_interval: int = 8,
) -> GatewayCoordinator:
    """Build a coordinator resuming exactly where a checkpoint stopped.

    ``num_partitions`` may differ from the checkpoint's: each tenant's
    state is split along the new ring. Passing ``tenants`` pins the
    expected tenant set; any mismatch with the checkpoint is refused
    with an actionable error instead of silently dropping or
    fabricating tenants.
    """
    from repro.gateway.coordinator import GatewayCoordinator

    state = load_checkpoint(path)
    try:
        specs = [TenantSpec.from_dict(record) for record in state["tenants"]]
    except ValueError as exc:
        raise GatewayCompatibilityError(
            f"{path}: {exc}; re-create the checkpoint"
        ) from None
    if tenants is not None:
        want = {spec.tenant_id: spec for spec in tenants}
        have = {spec.tenant_id: spec for spec in specs}
        if set(want) != set(have):
            missing = sorted(set(have) - set(want))
            extra = sorted(set(want) - set(have))
            raise GatewayCompatibilityError(
                f"tenant set mismatch: the checkpoint in {path!r} holds "
                f"{sorted(have)} but the restore asked for {sorted(want)} "
                f"(missing from request: {missing}; not in checkpoint: "
                f"{extra}). Restore with the checkpoint's tenant set, or "
                "re-create the checkpoint with the new tenants."
            )
        for tenant_id, spec in want.items():
            if spec.to_dict() != have[tenant_id].to_dict():
                raise GatewayCompatibilityError(
                    f"tenant {tenant_id!r} differs from the checkpointed "
                    f"spec ({spec.to_dict()} vs {have[tenant_id].to_dict()}); "
                    "a changed seed/plan/backend cannot resume — re-create "
                    "the checkpoint"
                )
    new_partitions = (
        int(num_partitions)
        if num_partitions is not None
        else int(state["partitions"])
    )
    new_vnodes = int(vnodes) if vnodes is not None else int(state["vnodes"])
    coordinator = GatewayCoordinator(
        specs,
        num_partitions=new_partitions,
        transport=transport,
        queue_depth=queue_depth,
        shed_policy=shed_policy,
        vnodes=new_vnodes,
        report_threshold=report_threshold,
        min_change=min_change,
        observability=observability,
        telemetry_interval=telemetry_interval,
    )
    try:
        coordinator.restore_state(state)
    except Exception:
        coordinator.close()
        raise
    return coordinator
