"""The analytics engine: one fold of each epoch's table.

:class:`AnalyticsEngine` subscribes to the per-epoch snapshots a
:class:`~repro.service.tracking.TrackingService` publishes (or an
offline replay of them). Each epoch it folds the published
``APtoObjHT`` once, through :meth:`RegionMap.fold_table
<repro.analytics.regions.RegionMap.fold_table>`, in ascending object id:

* **occupancy** — per-region expected object count plus variance, from
  posterior room-membership mass (expected counts are additive over
  objects; variance is the Poisson-binomial ``Σ m·(1-m)``);
* **density heatmap** — expected mass per anchor point of the walking
  graph;
* **top-k busiest regions** — the regions sorted by expected count on
  each read.

These aggregates depend only on the current table; the engine keeps a
reference to it and the fold, and no copy of any posterior. What does
depend on history is kept per object and per region:

* **flow** — enter/leave counts per region and per directed room edge,
  from debounced modal-region transitions;
* **dwell** — per-region and per-object streaming histograms of
  completed stays (no per-epoch rescan of history).

The engine is driven from the service's scheduler thread, like the
standing-query sessions; it draws no randomness and reads no clock
(epoch ``second`` values come from the snapshots), so attaching it
cannot perturb replay results.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

import repro.obs as obs
from repro.analytics._coerce import as_float, as_int, as_list, as_map
from repro.analytics.regions import RegionMap, TableFold
from repro.analytics.streaming import DEFAULT_DWELL_EDGES, StreamingHistogram
from repro.floorplan.plan import FloorPlan
from repro.graph.anchors import AnchorIndex
from repro.index.hashtable import AnchorObjectTable

if TYPE_CHECKING:
    from repro.queries.density import ZoneDensity

#: Analytics checkpoint state version (carried inside the service's
#: checkpoint envelope). Version 2 added modal-readout hysteresis: the
#: committed modal region, the pending-candidate debounce state, and the
#: ``flow_hysteresis`` threshold. Version 3 dropped the folded
#: aggregates (``occupancy``, ``occ_m2``, ``density``): a restore refolds
#: the objects' ``dist`` maps. Version 2 states still restore.
ANALYTICS_STATE_VERSION = 3

#: State versions :meth:`AnalyticsEngine.restore_state` accepts.
_RESTORABLE_VERSIONS = (2, ANALYTICS_STATE_VERSION)

#: Default modal-transition debounce: a new modal region must hold for
#: this many consecutive epochs before a flow event is committed. The
#: posterior's modal region flaps between adjacent rooms while belief
#: mass is split near a door, and every flap used to count as a
#: transition — inflating flow counts roughly 4× against ground truth.
#: ``1`` disables the debounce (every readout flip commits immediately).
DEFAULT_FLOW_HYSTERESIS = 2

FlowKey = str


def flow_key(source: str, target: str) -> FlowKey:
    """The JSON-safe key of one directed room edge."""
    return f"{source}->{target}"


class SnapshotLike(Protocol):
    """The slice of a service snapshot the analytics engine reads.

    :class:`~repro.service.tracking.ServiceSnapshot` satisfies this; so
    does any replayed stand-in with the same two fields. Keeping the
    dependency structural avoids an analytics → service import cycle.
    """

    @property
    def second(self) -> int: ...

    @property
    def table(self) -> AnchorObjectTable: ...


class AnalyticsEngine:
    """Occupancy/flow/dwell analytics, one table fold per epoch."""

    def __init__(
        self,
        plan: FloorPlan,
        anchor_index: AnchorIndex,
        dwell_edges: Sequence[float] = DEFAULT_DWELL_EDGES,
        flow_hysteresis: int = DEFAULT_FLOW_HYSTERESIS,
    ) -> None:
        if flow_hysteresis < 1:
            raise ValueError("flow_hysteresis must be >= 1")
        self.region_map = RegionMap(plan, anchor_index)
        self.dwell_edges: Tuple[float, ...] = tuple(float(e) for e in dwell_edges)
        self.flow_hysteresis = int(flow_hysteresis)
        # -- the last table and its fold --------------------------------
        self._table = AnchorObjectTable()
        self._fold: TableFold = self.region_map.fold_table(self._table)
        # -- per-object state ------------------------------------------
        self._modal: Dict[str, str] = {}
        self._modal_since: Dict[str, int] = {}
        #: debounce state: object -> (candidate region, second the
        #: candidate was first read out, consecutive readout count)
        self._pending: Dict[str, Tuple[str, int, int]] = {}
        # -- history aggregates -----------------------------------------
        self._flows: Dict[FlowKey, int] = {}
        self._enters: Dict[str, int] = {}
        self._leaves: Dict[str, int] = {}
        self._dwell_region: Dict[str, StreamingHistogram] = {}
        self._dwell_object: Dict[str, StreamingHistogram] = {}
        # -- counters ---------------------------------------------------
        self.epochs = 0
        self.updates = 0
        self.flow_events = 0
        self.first_second: Optional[int] = None
        self.last_second: Optional[int] = None
        self._epoch_delta: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # the write path: one call per published snapshot
    # ------------------------------------------------------------------
    def observe_snapshot(self, snapshot: SnapshotLike) -> Dict[str, object]:
        """Fold one published service snapshot into every aggregate.

        ``snapshot`` needs only ``.second`` and ``.table`` (the
        :class:`~repro.service.tracking.ServiceSnapshot` shape). Objects
        that left the table are retired first; then the table is folded
        once and every present object's modal region is read out.
        Returns the epoch's analytics delta record (what the event log
        stores); its ``updates`` counts the objects folded plus the
        objects that departed.
        """
        second = int(snapshot.second)
        table = snapshot.table
        if self.last_second is not None and second <= self.last_second:
            raise ValueError(
                f"snapshots must advance in time: got second {second} "
                f"after {self.last_second}"
            )
        epoch_flows: Dict[FlowKey, int] = {}
        epoch_dwells: List[Tuple[str, float]] = []

        departed = sorted(set(self._modal).difference(table.objects()))
        for object_id in departed:
            self._retire_object(object_id, second, epoch_dwells)

        fold = self.region_map.fold_table(table)
        for object_id, mass in fold.mass.items():
            readout = RegionMap.modal_region(mass)
            assert readout is not None  # present objects carry mass
            if object_id in self._modal:
                self._observe_modal_readout(
                    object_id, readout, second, epoch_flows, epoch_dwells
                )
            else:
                self._enters[readout] = self._enters.get(readout, 0) + 1
                self._modal_since[object_id] = second
                self._modal[object_id] = readout
        self._table = table
        self._fold = fold

        epoch_updates = len(fold.mass) + len(departed)
        self.epochs += 1
        self.updates += epoch_updates
        if self.first_second is None:
            self.first_second = second
        self.last_second = second
        self._epoch_delta = {
            "occupancy": {
                region: round(expected, 9)
                for region, expected in fold.occupancy.items()
            },
            "flows": dict(sorted(epoch_flows.items())),
            "dwells": [[region, seconds] for region, seconds in epoch_dwells],
            "updates": epoch_updates,
        }
        if obs.enabled():
            obs.add("analytics.epochs")
            obs.add("analytics.updates", epoch_updates)
            if epoch_flows:
                obs.add(
                    "analytics.flow_events", sum(epoch_flows.values())
                )
            obs.gauge_set("analytics.objects_tracked", len(fold.mass))
            for region, expected in fold.occupancy.items():
                obs.gauge_set(
                    "analytics.room_occupancy",
                    round(expected, 9),
                    labels={"room": region},
                )
        return dict(self._epoch_delta)

    def _observe_modal_readout(
        self,
        object_id: str,
        readout: str,
        second: int,
        epoch_flows: Dict[FlowKey, int],
        epoch_dwells: List[Tuple[str, float]],
    ) -> None:
        """Debounced modal-transition logic for one tracked object.

        ``readout`` is this epoch's modal region. A readout matching the
        committed region clears any pending candidate; a differing
        readout must repeat for ``flow_hysteresis`` consecutive epochs
        before the transition commits. On commit, the dwell and the
        ``modal_since`` baseline are backdated to the second the
        candidate was first read out — the transition *happened* then,
        the debounce only delayed believing it.
        """
        committed = self._modal[object_id]
        if readout == committed:
            self._pending.pop(object_id, None)
            return
        pending = self._pending.get(object_id)
        if pending is not None and pending[0] == readout:
            first_seen, count = pending[1], pending[2] + 1
        else:
            first_seen, count = second, 1
        if count < self.flow_hysteresis:
            self._pending[object_id] = (readout, first_seen, count)
            return
        self._pending.pop(object_id, None)
        dwelled = float(first_seen - self._modal_since[object_id])
        self._record_dwell(object_id, committed, dwelled)
        epoch_dwells.append((committed, dwelled))
        key = flow_key(committed, readout)
        self._flows[key] = self._flows.get(key, 0) + 1
        epoch_flows[key] = epoch_flows.get(key, 0) + 1
        self._leaves[committed] = self._leaves.get(committed, 0) + 1
        self._enters[readout] = self._enters.get(readout, 0) + 1
        self._modal_since[object_id] = first_seen
        self._modal[object_id] = readout
        self.flow_events += 1

    def _retire_object(
        self,
        object_id: str,
        second: int,
        epoch_dwells: List[Tuple[str, float]],
    ) -> None:
        """An object left the table: close its dwell."""
        modal = self._modal.pop(object_id)
        self._pending.pop(object_id, None)
        dwelled = float(second - self._modal_since.pop(object_id))
        self._record_dwell(object_id, modal, dwelled)
        epoch_dwells.append((modal, dwelled))
        self._leaves[modal] = self._leaves.get(modal, 0) + 1

    def _record_dwell(self, object_id: str, region: str, seconds: float) -> None:
        if region not in self._dwell_region:
            self._dwell_region[region] = StreamingHistogram(self.dwell_edges)
        self._dwell_region[region].add(seconds)
        if object_id not in self._dwell_object:
            self._dwell_object[object_id] = StreamingHistogram(self.dwell_edges)
        self._dwell_object[object_id].add(seconds)

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------
    def occupancy_of(self, region: str) -> Tuple[float, float]:
        """``(expected_count, variance)`` of one region right now."""
        fold = self._fold
        return fold.occupancy.get(region, 0.0), fold.variance.get(region, 0.0)

    def room_occupancy(self) -> Dict[str, Dict[str, float]]:
        """Expected count and variance for every region."""
        fold = self._fold
        return {
            region: {
                "expected": fold.occupancy[region],
                "variance": fold.variance[region],
            }
            for region in self.region_map.regions
        }

    def top_regions(self, k: int) -> List[Tuple[str, float]]:
        """The ``k`` busiest regions by expected count (ties by region)."""
        if k <= 0:
            return []
        ranked = sorted(
            self._fold.occupancy.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:k]

    def flow_counts(self) -> Dict[FlowKey, int]:
        """Cumulative transition counts per directed region edge."""
        return dict(sorted(self._flows.items()))

    def flow_rates(self) -> Dict[FlowKey, float]:
        """Transitions per observed second, per directed region edge."""
        span = self.observed_seconds()
        if span <= 0:
            return {key: 0.0 for key in sorted(self._flows)}
        return {key: self._flows[key] / span for key in sorted(self._flows)}

    def enter_leave_counts(self) -> Dict[str, Dict[str, int]]:
        """Cumulative enters/leaves per region."""
        regions = sorted(set(self._enters) | set(self._leaves))
        return {
            region: {
                "enters": self._enters.get(region, 0),
                "leaves": self._leaves.get(region, 0),
            }
            for region in regions
        }

    def dwell_histogram(self, region: str) -> Optional[StreamingHistogram]:
        """Completed-dwell histogram of one region (None when empty)."""
        return self._dwell_region.get(region)

    def object_dwell_histogram(self, object_id: str) -> Optional[StreamingHistogram]:
        """Completed-dwell histogram of one object (None when empty)."""
        return self._dwell_object.get(object_id)

    def dwell_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-region dwell stats: completed stays, mean, bucket counts."""
        return {
            region: {
                "count": histogram.count,
                "mean_seconds": round(histogram.mean(), 9),
                "buckets": list(histogram.counts),
            }
            for region, histogram in sorted(self._dwell_region.items())
        }

    def heatmap(self, limit: Optional[int] = None) -> List[Tuple[int, float, float, float]]:
        """``(ap_id, x, y, expected_mass)`` rows, densest anchors first."""
        ranked = sorted(
            self._fold.density.items(), key=lambda item: (-item[1], item[0])
        )
        if limit is not None:
            ranked = ranked[:limit]
        rows: List[Tuple[int, float, float, float]] = []
        for ap_id, mass in ranked:
            point = self.region_map.anchor_index.anchor(ap_id).point
            rows.append((ap_id, point.x, point.y, mass))
        return rows

    def tracked_objects(self) -> int:
        """Objects in the last folded table."""
        return len(self._modal)

    def observed_seconds(self) -> int:
        """Width of the observed time span (0 before two epochs)."""
        if self.first_second is None or self.last_second is None:
            return 0
        return self.last_second - self.first_second

    def epoch_delta(self) -> Dict[str, object]:
        """The latest epoch's analytics record (for the event log)."""
        return dict(self._epoch_delta)

    def summary(self) -> Dict[str, object]:
        """The ``/analytics`` endpoint document."""
        top = [
            {"region": region, "expected": round(score, 9)}
            for region, score in self.top_regions(5)
        ]
        fold = self._fold
        occupancy = {
            region: {
                "expected": round(fold.occupancy[region], 9),
                "variance": round(max(fold.variance[region], 0.0), 9),
            }
            for region in self.region_map.regions
        }
        return {
            "epochs": self.epochs,
            "updates": self.updates,
            "first_second": self.first_second,
            "last_second": self.last_second,
            "objects": self.tracked_objects(),
            "occupancy": occupancy,
            "top_regions": top,
            "flows": {
                "events": self.flow_events,
                "edges": self.flow_counts(),
                "rates_per_second": {
                    key: round(value, 9)
                    for key, value in self.flow_rates().items()
                },
            },
            "enter_leave": self.enter_leave_counts(),
            "dwell": self.dwell_summary(),
            "heatmap_top": [
                {
                    "ap_id": ap_id,
                    "x": round(x, 3),
                    "y": round(y, 3),
                    "mass": round(mass, 9),
                }
                for ap_id, x, y, mass in self.heatmap(limit=10)
            ],
        }

    # ------------------------------------------------------------------
    # density-query surface
    # ------------------------------------------------------------------
    def room_densities(self, top_n: int = 3) -> "List[ZoneDensity]":
        """Per-room expected occupancy of the last table.

        :func:`repro.queries.density.room_densities` of that table: one
        implementation, so the rows are equal float for float.
        """
        from repro.queries.density import room_densities

        region_map = self.region_map
        return room_densities(
            region_map.plan, region_map.anchor_index, self._table, top_n
        )

    # ------------------------------------------------------------------
    # checkpointing (rides in the service's checkpoint envelope)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Everything a warm restart needs, JSON-safe; resumes bit-exact.

        Each object's ``dist`` is its last posterior in the table's own
        order, which is the order the fold reads it, so a restore refolds
        the same floats.
        """
        table = self._table
        return {
            "state_version": ANALYTICS_STATE_VERSION,
            "dwell_edges": list(self.dwell_edges),
            "flow_hysteresis": self.flow_hysteresis,
            "epochs": self.epochs,
            "updates": self.updates,
            "flow_events": self.flow_events,
            "first_second": self.first_second,
            "last_second": self.last_second,
            "objects": {
                object_id: {
                    "dist": {
                        str(ap_id): probability
                        for ap_id, probability in table.distribution_of(
                            object_id
                        ).items()
                    },
                    "modal": self._modal[object_id],
                    "modal_since": self._modal_since[object_id],
                    "pending": (
                        list(self._pending[object_id])
                        if object_id in self._pending
                        else None
                    ),
                }
                for object_id in sorted(self._modal)
            },
            "flows": dict(sorted(self._flows.items())),
            "enters": dict(sorted(self._enters.items())),
            "leaves": dict(sorted(self._leaves.items())),
            "dwell_region": {
                region: histogram.state_dict()
                for region, histogram in sorted(self._dwell_region.items())
            },
            "dwell_object": {
                object_id: histogram.state_dict()
                for object_id, histogram in sorted(self._dwell_object.items())
            },
            "epoch_delta": dict(self._epoch_delta),
        }

    def restore_state(self, state: Mapping[str, object]) -> None:
        """Restore from :meth:`state_dict` output (same world geometry).

        Version 2 states restore too; their folded aggregates are ignored
        and their ``dist`` maps, sorted by anchor id, are refolded.
        """
        version = as_int(state.get("state_version", 0))
        if version not in _RESTORABLE_VERSIONS:
            raise ValueError(
                f"analytics state version {version} is not supported "
                f"(expected one of {_RESTORABLE_VERSIONS})"
            )
        self.dwell_edges = tuple(as_float(e) for e in as_list(state["dwell_edges"]))
        self.flow_hysteresis = as_int(state["flow_hysteresis"])
        self.epochs = as_int(state["epochs"])
        self.updates = as_int(state["updates"])
        self.flow_events = as_int(state["flow_events"])
        first = state["first_second"]
        last = state["last_second"]
        self.first_second = None if first is None else as_int(first)
        self.last_second = None if last is None else as_int(last)
        self._modal.clear()
        self._modal_since.clear()
        self._pending.clear()
        objects = as_map(state["objects"])
        distributions: List[Tuple[str, Dict[int, float]]] = []
        for object_id in sorted(objects):
            record = as_map(objects[object_id])
            dist_state = as_map(record["dist"])
            distributions.append((
                str(object_id),
                {int(ap_id): float(dist_state[ap_id]) for ap_id in dist_state},
            ))
            self._modal[str(object_id)] = str(record["modal"])
            self._modal_since[str(object_id)] = int(record["modal_since"])
            pending = record.get("pending")
            if pending is not None:
                candidate, first_seen, count = as_list(pending)
                self._pending[str(object_id)] = (
                    str(candidate),
                    as_int(first_seen),
                    as_int(count),
                )
        self._table = AnchorObjectTable.from_distributions(distributions)
        self._fold = self.region_map.fold_table(self._table)
        flows = as_map(state["flows"])
        enters = as_map(state["enters"])
        leaves = as_map(state["leaves"])
        self._flows = {str(key): int(flows[key]) for key in sorted(flows)}
        self._enters = {str(key): int(enters[key]) for key in sorted(enters)}
        self._leaves = {str(key): int(leaves[key]) for key in sorted(leaves)}
        dwell_region = as_map(state["dwell_region"])
        dwell_object = as_map(state["dwell_object"])
        self._dwell_region = {
            str(region): StreamingHistogram.from_state(dwell_region[region])
            for region in sorted(dwell_region)
        }
        self._dwell_object = {
            str(object_id): StreamingHistogram.from_state(dwell_object[object_id])
            for object_id in sorted(dwell_object)
        }
        delta = as_map(state.get("epoch_delta", {}))
        self._epoch_delta = dict(delta)
