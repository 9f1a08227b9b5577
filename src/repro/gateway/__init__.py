"""``repro.gateway`` — partitioned multi-process tracking, multi-tenant.

The scale-out ring above :mod:`repro.service`: tracked objects are
partitioned across worker *processes* by a consistent-hash ring, each
worker runs one tracking service per tenant over its slice, and the
gateway merges the per-partition snapshots back into
one table per tenant — bit-identical to a single-process run at any
partition count, because every filter draw is keyed by
``(seed, object, stepped second)`` and never by placement.

Layers:

* :mod:`repro.gateway.partitioning` — the consistent-hash ring;
* :mod:`repro.gateway.tenants` — tenant specs and deterministic worlds;
* :mod:`repro.gateway.worker` — the per-partition worker core/protocol;
* :mod:`repro.gateway.transport` — inline and forked-process handles;
* :mod:`repro.gateway.coordinator` — fan-out, fan-in, per-tenant
  sessions/analytics, health;
* :mod:`repro.gateway.checkpoint` — rolling one-file checkpoints of
  per-tenant service states, with re-partitioning restore;
* :mod:`repro.gateway.server` — the stdlib HTTP/JSON query surface,
  imported on first use of ``GatewayServer``: ``http.server`` pulls in
  ``http.client``, ``ssl`` and ``email``, which a gateway that serves no
  HTTP never needs.
"""

from typing import Any

from repro.gateway.checkpoint import (
    GATEWAY_CHECKPOINT_FORMAT,
    GATEWAY_CHECKPOINT_VERSION,
    GatewayCompatibilityError,
    load_checkpoint,
    merge_tenant_states,
    restore_coordinator,
    save_checkpoint,
    split_tenant_state,
)
from repro.gateway.coordinator import (
    GatewayCoordinator,
    GatewayError,
    GatewayProtocolError,
)
from repro.gateway.partitioning import DEFAULT_VNODES, HashRing
from repro.gateway.tenants import (
    PLAN_PRESETS,
    TenantSpec,
    TenantWorld,
    demo_tenants,
    load_tenants,
    validate_tenants,
)
from repro.gateway.transport import (
    DEFAULT_QUEUE_DEPTH,
    GatewayWorkerError,
    InlineWorkerHandle,
    ProcessWorkerHandle,
    make_worker_handles,
)

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_VNODES",
    "GATEWAY_CHECKPOINT_FORMAT",
    "GATEWAY_CHECKPOINT_VERSION",
    "GatewayCompatibilityError",
    "GatewayCoordinator",
    "GatewayError",
    "GatewayProtocolError",
    "GatewayServer",
    "GatewayWorkerError",
    "HashRing",
    "InlineWorkerHandle",
    "PLAN_PRESETS",
    "ProcessWorkerHandle",
    "TenantSpec",
    "TenantWorld",
    "demo_tenants",
    "load_checkpoint",
    "load_tenants",
    "make_worker_handles",
    "merge_tenant_states",
    "restore_coordinator",
    "save_checkpoint",
    "split_tenant_state",
    "validate_tenants",
]


def __getattr__(name: str) -> Any:
    if name == "GatewayServer":
        from repro.gateway.server import GatewayServer

        return GatewayServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
