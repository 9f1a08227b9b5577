"""Region model: folding anchor-point posteriors into room mass.

Every anchor point of the walking graph belongs to exactly one *region*:
the room that contains it, or the shared hallway bucket
(:data:`HALLWAYS`). Folding an object's posterior anchor distribution
through this map yields its **room-membership mass** — the probability
that the object is in each region — which is the quantity every
aggregate in :mod:`repro.analytics` is built from.
:meth:`RegionMap.fold_table` folds a whole published table in one pass
over each object's (sparse) anchor distribution — no particles, no
geometry tests, no per-room rescans — and it is the one definition of
occupancy, variance and density: the analytics engine and
:func:`repro.queries.density.room_densities` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.floorplan.plan import FloorPlan
from repro.graph.anchors import AnchorIndex
from repro.index.hashtable import AnchorObjectTable

#: The region key that pools every hallway anchor (rooms are the unit of
#: occupancy analytics; hallways are transit space).
HALLWAYS = "__hallways__"


@dataclass(frozen=True)
class TableFold:
    """Every aggregate of one table, from one pass in ascending object id.

    ``occupancy`` and ``variance`` hold every region (the Poisson-binomial
    ``Σ m·(1-m)``); ``density`` is the expected mass per anchor; ``mass``
    is each object's room-membership mass. The sums run in one fixed
    order, so a table always folds to the same floats.
    """

    occupancy: Dict[str, float]
    variance: Dict[str, float]
    density: Dict[int, float]
    mass: Dict[str, Dict[str, float]]


class RegionMap:
    """Precomputed ``ap_id -> region`` lookup for one anchor index.

    Built once (one pass over the anchors); every later fold is a sparse
    dictionary walk. The region list is stable: rooms in floor-plan
    order, then the hallway bucket.
    """

    def __init__(self, plan: FloorPlan, anchor_index: AnchorIndex) -> None:
        self.plan = plan
        self.anchor_index = anchor_index
        self._region_of: Dict[int, str] = {}
        for ap in anchor_index:
            self._region_of[ap.ap_id] = (
                ap.room_id if ap.room_id is not None else HALLWAYS
            )
        self.regions: Tuple[str, ...] = tuple(
            [room.room_id for room in plan.rooms] + [HALLWAYS]
        )
        self._known = frozenset(self.regions)

    def region_of(self, ap_id: int) -> str:
        """The region containing one anchor point."""
        return self._region_of[ap_id]

    def fold_table(self, table: AnchorObjectTable) -> TableFold:
        """Fold every object of ``table``, in ascending object id.

        An object's region mass sums its anchor probabilities in the
        order the table stores them, and keeps only regions with mass,
        keys sorted, so two identical posteriors fold to identical dicts.
        """
        occupancy = dict.fromkeys(self.regions, 0.0)
        variance = dict.fromkeys(self.regions, 0.0)
        density: Dict[int, float] = {}
        masses: Dict[str, Dict[str, float]] = {}
        region_of = self._region_of
        for object_id in sorted(table.objects()):
            mass: Dict[str, float] = {}
            for ap_id, probability in table.distribution_of(object_id).items():
                density[ap_id] = density.get(ap_id, 0.0) + probability
                region = region_of[ap_id]
                mass[region] = mass.get(region, 0.0) + probability
            if len(mass) > 1:
                mass = {region: mass[region] for region in sorted(mass)}
            for region, value in mass.items():
                occupancy[region] += value
                variance[region] += value * (1.0 - value)
            masses[object_id] = mass
        return TableFold(occupancy, variance, density, masses)

    @staticmethod
    def modal_region(mass: Mapping[str, float]) -> Optional[str]:
        """The region holding the most mass (ties break by region id)."""
        best: Optional[str] = None
        best_mass = 0.0
        for region in sorted(mass):
            value = mass[region]
            if value > best_mass:
                best, best_mass = region, value
        return best

    def room_ids(self) -> List[str]:
        """Room regions only (the hallway bucket excluded)."""
        return [region for region in self.regions if region != HALLWAYS]
