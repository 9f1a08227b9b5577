"""Rolling gateway checkpoints: per-partition files + one manifest.

Layout of a checkpoint directory::

    partition-0000.json   one per partition: that worker's per-tenant
    partition-0001.json   TrackingService.state_dict slices
    ...
    gateway.manifest.json the commit point: ring geometry, tenant
                          specs, and the gateway-side serving state
                          (sessions, analytics, tick counters)

Every file is written atomically (tmp + ``os.replace``) and the
manifest is written *last*, so a crash mid-checkpoint leaves the
previous complete checkpoint intact: a directory is only as current as
its manifest.

Restore is **coordinated**: all partition files must exist, agree on
the partition count, and carry every tenant at the same tick — a
checkpoint is one consistent cut or it is refused
(:class:`GatewayCompatibilityError`).

Restoring at a *different* partition count works by construction:
per-tenant worker state is mergeable by object id (collector runs,
generations, events, cache entries are all per-object and disjoint
across partitions), so restore merges the old slices into one logical
state per tenant and re-splits it along the new ring
(:func:`merge_tenant_states` / :func:`split_tenant_state`). Because
filter randomness derives from ``(seed, second, object_id)``, the
re-placed objects resume bit-identically.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.gateway.coordinator import GatewayCoordinator
from repro.gateway.partitioning import DEFAULT_VNODES
from repro.gateway.tenants import TenantSpec
from repro.gateway.transport import DEFAULT_QUEUE_DEPTH
from repro.service.checkpoint import write_text_atomic

GATEWAY_CHECKPOINT_FORMAT = "repro-gateway-checkpoint"
GATEWAY_CHECKPOINT_VERSION = 1
PARTITION_CHECKPOINT_FORMAT = "repro-gateway-partition"

MANIFEST_NAME = "gateway.manifest.json"


class GatewayCompatibilityError(ValueError):
    """A gateway checkpoint cannot be restored as asked."""


def partition_filename(index: int) -> str:
    return f"partition-{index:04d}.json"


def _write_json(path: str, document: dict) -> None:
    # Serialized here, not in save_checkpoint: the SCHEMA lock covers
    # the service checkpoint envelope only.
    write_text_atomic(path, json.dumps(document))


def save_checkpoint(coordinator: GatewayCoordinator, directory: str) -> None:
    """Write one coordinated checkpoint of the whole deployment."""
    os.makedirs(directory, exist_ok=True)
    states = coordinator.partition_states()
    for index in sorted(states):
        document = {
            "format": PARTITION_CHECKPOINT_FORMAT,
            "checkpoint_version": GATEWAY_CHECKPOINT_VERSION,
            "partition": index,
            "partitions": coordinator.num_partitions,
            "tenants": states[index],
        }
        _write_json(os.path.join(directory, partition_filename(index)), document)
    manifest = {
        "format": GATEWAY_CHECKPOINT_FORMAT,
        "checkpoint_version": GATEWAY_CHECKPOINT_VERSION,
        "state": coordinator.state_dict(),
    }
    _write_json(os.path.join(directory, MANIFEST_NAME), manifest)


def load_checkpoint(directory: str) -> Tuple[dict, Dict[int, Dict[str, dict]]]:
    """Read a checkpoint directory → (manifest state, partition slices).

    Validates the coordinated cut: manifest present, every partition
    file present with matching geometry, every tenant present in every
    partition file at one common tick.
    """
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise GatewayCompatibilityError(
            f"{directory}: no {MANIFEST_NAME}; not a gateway checkpoint "
            "(or an interrupted one — the manifest is written last)"
        )
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != GATEWAY_CHECKPOINT_FORMAT:
        raise GatewayCompatibilityError(
            f"{manifest_path}: format {manifest.get('format')!r} is not "
            f"{GATEWAY_CHECKPOINT_FORMAT!r}"
        )
    if int(manifest.get("checkpoint_version", 0)) != GATEWAY_CHECKPOINT_VERSION:
        raise GatewayCompatibilityError(
            f"{manifest_path}: checkpoint version "
            f"{manifest.get('checkpoint_version')!r} is not supported "
            f"(this build speaks {GATEWAY_CHECKPOINT_VERSION})"
        )
    state = manifest["state"]
    partitions = int(state["partitions"])
    tenant_ids = sorted(
        record["tenant_id"] for record in state["tenants"]
    )
    slices: Dict[int, Dict[str, dict]] = {}
    for index in range(partitions):
        path = os.path.join(directory, partition_filename(index))
        if not os.path.exists(path):
            raise GatewayCompatibilityError(
                f"{directory}: missing {partition_filename(index)} "
                f"(manifest says {partitions} partitions); the checkpoint "
                "is incomplete — re-create it"
            )
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("format") != PARTITION_CHECKPOINT_FORMAT:
            raise GatewayCompatibilityError(
                f"{path}: format {document.get('format')!r} is not "
                f"{PARTITION_CHECKPOINT_FORMAT!r}"
            )
        if (
            int(document.get("partition", -1)) != index
            or int(document.get("partitions", -1)) != partitions
        ):
            raise GatewayCompatibilityError(
                f"{path}: geometry mismatch with the manifest "
                "(stale file from an older layout?); re-create the checkpoint"
            )
        if sorted(document["tenants"]) != tenant_ids:
            raise GatewayCompatibilityError(
                f"{path}: tenant set {sorted(document['tenants'])} does not "
                f"match the manifest's {tenant_ids}; re-create the checkpoint"
            )
        slices[index] = document["tenants"]
    # One consistent cut: every partition stopped after the same tick.
    for tenant_id in tenant_ids:
        ticks = {int(slices[i][tenant_id]["ticks"]) for i in slices}
        if len(ticks) > 1:
            raise GatewayCompatibilityError(
                f"{directory}: tenant {tenant_id!r} is at ticks "
                f"{sorted(ticks)} across partitions — not a coordinated "
                "cut; re-create the checkpoint"
            )
    return state, slices


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
    out["analytics"] = None
    return out


def restore_coordinator(
    directory: str,
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

    ``num_partitions`` may differ from the checkpoint's: the old slices
    are merged per tenant and re-split along the new ring. Passing
    ``tenants`` pins the expected tenant set; any mismatch with the
    checkpoint is refused with an actionable error instead of silently
    dropping or fabricating tenants.
    """
    manifest_state, slices = load_checkpoint(directory)
    manifest_specs = [
        TenantSpec.from_dict(record) for record in manifest_state["tenants"]
    ]
    if tenants is not None:
        want = {spec.tenant_id: spec for spec in tenants}
        have = {spec.tenant_id: spec for spec in manifest_specs}
        if set(want) != set(have):
            missing = sorted(set(have) - set(want))
            extra = sorted(set(want) - set(have))
            raise GatewayCompatibilityError(
                f"tenant set mismatch: the checkpoint in {directory!r} holds "
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
    specs = manifest_specs
    new_partitions = (
        int(num_partitions)
        if num_partitions is not None
        else int(manifest_state["partitions"])
    )
    new_vnodes = (
        int(vnodes)
        if vnodes is not None
        else int(manifest_state.get("vnodes", DEFAULT_VNODES))
    )
    merged = {
        spec.tenant_id: merge_tenant_states(
            [slices[index][spec.tenant_id] for index in sorted(slices)]
        )
        for spec in specs
    }
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
        ring = coordinator.ring
        payloads: Dict[int, Dict[str, dict]] = {}
        for handle in coordinator.handles:
            index = handle.index  # type: ignore[attr-defined]
            payloads[index] = {
                tenant_id: split_tenant_state(
                    state,
                    lambda object_id, _tid=tenant_id: (
                        ring.partition_of(_tid, object_id) == index
                    ),
                )
                for tenant_id, state in merged.items()
            }
        coordinator.restore_partitions(payloads)
        coordinator.restore_serving(manifest_state["serving"])
    except Exception:
        coordinator.close()
        raise
    return coordinator
