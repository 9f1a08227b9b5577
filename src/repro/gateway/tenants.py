"""Tenant registry: many floorplans served by one gateway deployment.

A *tenant* is one building/floorplan with its own RNG seed, object
population, and (optionally) filter backend — the worldwide
floor-plan-service framing: one deployment, many isolated worlds. A
:class:`TenantSpec` is the portable description (JSON-safe, identical
on the gateway and inside every worker process); a
:class:`TenantWorld` is the deterministic expansion of a spec into the
plan/readers/config objects the tracking stack needs.

Expansion is pure: both sides build the same world from the same spec,
so nothing geometric ever crosses the process boundary — only specs and
readings do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.filters import available_backends
from repro.floorplan.plan import FloorPlan
from repro.floorplan.presets import (
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.rfid.deployment import deploy_readers_uniform
from repro.rfid.reader import RFIDReader

#: Named floorplan presets a spec may reference (a name travels over
#: the wire; a FloorPlan object never does).
PLAN_PRESETS: Dict[str, Callable[[], FloorPlan]] = {
    "paper": paper_office_plan,
    "small": small_test_plan,
    "linear": linear_office_plan,
    "cross": cross_office_plan,
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's portable, JSON-safe description."""

    tenant_id: str
    seed: int
    num_objects: int = 8
    plan: str = "paper"
    filter_backend: str = "particle"

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if "/" in self.tenant_id:
            # Ring keys are "tenant/object"; a slash in the tenant id
            # would alias another tenant's keyspace.
            raise ValueError(f"tenant_id may not contain '/': {self.tenant_id!r}")
        if self.plan not in PLAN_PRESETS:
            raise ValueError(
                f"unknown plan preset {self.plan!r}; "
                f"choose one of {sorted(PLAN_PRESETS)}"
            )
        if self.filter_backend not in available_backends():
            raise ValueError(
                f"unknown filter backend {self.filter_backend!r}; "
                f"choose one of {list(available_backends())}"
            )
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "seed": self.seed,
            "num_objects": self.num_objects,
            "plan": self.plan,
            "filter_backend": self.filter_backend,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "TenantSpec":
        return cls(
            tenant_id=str(record["tenant_id"]),
            seed=int(record["seed"]),  # type: ignore[arg-type]
            num_objects=int(record.get("num_objects", 8)),  # type: ignore[arg-type]
            plan=str(record.get("plan", "paper")),
            filter_backend=str(record.get("filter_backend", "particle")),
        )


class TenantWorld:
    """A spec expanded into the concrete objects the tracker needs.

    The expansion is deterministic (preset plan, uniform reader
    deployment, config derived only from the spec), so a worker process
    and the gateway independently reconstruct identical worlds.
    """

    def __init__(self, spec: TenantSpec, observability: bool = False) -> None:
        self.spec = spec
        self.config: SimulationConfig = DEFAULT_CONFIG.with_overrides(
            seed=spec.seed,
            num_objects=spec.num_objects,
            observability=observability,
        )
        self.plan: FloorPlan = PLAN_PRESETS[spec.plan]()
        self.readers: List[RFIDReader] = deploy_readers_uniform(
            self.plan, self.config.num_readers, self.config.activation_range
        )


def validate_tenants(specs: Sequence[TenantSpec]) -> List[TenantSpec]:
    """Reject empty or duplicate-id tenant sets; returns the list."""
    if not specs:
        raise ValueError("at least one tenant is required")
    seen: Dict[str, TenantSpec] = {}
    for spec in specs:
        if spec.tenant_id in seen:
            raise ValueError(f"duplicate tenant_id {spec.tenant_id!r}")
        seen[spec.tenant_id] = spec
    return list(specs)


def load_tenants(path: str) -> List[TenantSpec]:
    """Load tenant specs from a JSON file.

    Accepts either a bare list of spec records or an object with a
    ``"tenants"`` list (the shape of a gateway checkpoint's state).
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    records = document.get("tenants") if isinstance(document, dict) else document
    if not isinstance(records, list):
        raise ValueError(
            f"{path}: expected a JSON list of tenant specs "
            "or an object with a 'tenants' list"
        )
    return validate_tenants([TenantSpec.from_dict(record) for record in records])


def demo_tenants(
    count: int,
    base_seed: int = 101,
    num_objects: int = 8,
    plan: str = "paper",
    filter_backend: str = "particle",
) -> List[TenantSpec]:
    """N synthetic tenants with distinct seeds (demos, benches, tests)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [
        TenantSpec(
            tenant_id=f"tenant-{index}",
            seed=base_seed + 37 * index,
            num_objects=num_objects,
            plan=plan,
            filter_backend=filter_backend,
        )
        for index in range(count)
    ]
