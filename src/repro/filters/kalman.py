"""A graph-constrained Kalman filter backend.

The belief is a Gaussian mixture over graph positions: each hypothesis
is a Gaussian in ``(offset, velocity)`` on one edge (or a dwelling atom
pinned at a room node), with a weight. Prediction propagates each
Gaussian through the constant-velocity model

.. math::

    F = \\begin{pmatrix}1 & dt\\\\ 0 & 1\\end{pmatrix}, \\qquad
    Q = \\sigma_a^2 \\begin{pmatrix}dt^3/3 & dt^2/2\\\\
                                    dt^2/2 & dt\\end{pmatrix}

(the white-noise-acceleration process, ``sigma_a =
config.kalman_accel_std``). When a hypothesis mean crosses an edge
endpoint it splits across the outgoing edges, weighted exactly like the
particle motion model's junction choice (door bias, no U-turns except at
dead ends); crossing into a room node turns it into a dwelling atom,
which each second splits into "stay" and "leave" by
``room_exit_probability`` — the same semantics the particle filter
samples, computed in closed form.

Updates condition on detections with the paper's sensing likelihood
``w_hit * m + w_miss * (1 - m)`` where ``m`` is the Gaussian probability
mass inside the reader's coverage interval(s) on the hypothesis' edge
(an :func:`math.erf` integral), followed by a standard Kalman position
update against the interval center. Silent seconds, when negative
information is enabled, reweight by ``negative_likelihood * m + (1 -
m)`` against the union of all readers' coverage.

The mixture is kept small by moment-matched merging of same-edge
same-direction hypotheses closer than ``kalman_merge_distance``, pruning
of negligible weights, and a deterministic top-``kalman_max_hypotheses``
cap. The filter draws no random numbers at all — the injected generator
is ignored — so its results are trivially independent of partitioning,
execution order, and restarts.
"""

from __future__ import annotations

import math
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

import repro.obs as obs
from repro.collector.collector import ReadingHistory
from repro.config import SimulationConfig
from repro.filters.base import (
    BayesFilter,
    FilterBackend,
    FilterState,
    FilterStateError,
)
from repro.filters.registry import register_backend
from repro.graph.anchors import AnchorIndex
from repro.graph.walking_graph import WalkingGraph
from repro.rfid.reader import RFIDReader

#: Scan resolution (meters) when tracing reader coverage along edges —
#: matches the particle motion model's initialization scan.
_COVERAGE_SCAN_STEP = 0.25

#: Maximum junction hops a split may take in one prediction step. A 1 s
#: step at ~1 m/s cannot legitimately cross more than a few short edges.
_MAX_SPLIT_DEPTH = 4

#: Variance floor (m^2) so interval masses and anchor pdfs stay finite.
_VAR_FLOOR = 1e-4

#: Position variance assigned to dwelling atoms and room exits.
_DWELL_VAR = 1e-2

#: Relative weight below which a hypothesis is pruned.
_PRUNE_RATIO = 1e-9

#: Total-likelihood threshold that triggers a depletion reseed.
_DEPLETION_EPS = 1e-12

#: One coverage stretch on an edge: ``(lo, hi)`` offsets.
Interval = Tuple[float, float]

#: A mixture component as a plain tuple (see ``_ROW_FIELDS`` order):
#: ``(edge, offset, velocity, var_offset, cov_ov, var_velocity, weight,
#: dwelling)``.
Row = Tuple[int, float, float, float, float, float, float, bool]


class KalmanState:
    """The mixture belief as parallel arrays (cache/checkpoint form)."""

    __slots__ = (
        "edge",
        "offset",
        "velocity",
        "var_offset",
        "cov_ov",
        "var_velocity",
        "weight",
        "dwelling",
    )

    def __init__(
        self,
        edge: np.ndarray,
        offset: np.ndarray,
        velocity: np.ndarray,
        var_offset: np.ndarray,
        cov_ov: np.ndarray,
        var_velocity: np.ndarray,
        weight: np.ndarray,
        dwelling: np.ndarray,
    ) -> None:
        self.edge = edge
        self.offset = offset
        self.velocity = velocity
        self.var_offset = var_offset
        self.cov_ov = cov_ov
        self.var_velocity = var_velocity
        self.weight = weight
        self.dwelling = dwelling

    def __len__(self) -> int:
        return len(self.edge)

    @classmethod
    def from_rows(cls, rows: Sequence[Row]) -> "KalmanState":
        """Pack mixture rows into arrays."""
        return cls(
            edge=np.array([r[0] for r in rows], dtype=np.int64),
            offset=np.array([r[1] for r in rows], dtype=np.float64),
            velocity=np.array([r[2] for r in rows], dtype=np.float64),
            var_offset=np.array([r[3] for r in rows], dtype=np.float64),
            cov_ov=np.array([r[4] for r in rows], dtype=np.float64),
            var_velocity=np.array([r[5] for r in rows], dtype=np.float64),
            weight=np.array([r[6] for r in rows], dtype=np.float64),
            dwelling=np.array([r[7] for r in rows], dtype=bool),
        )

    def rows(self) -> List[Row]:
        """Unpack into mixture rows."""
        return [
            (
                int(self.edge[i]),
                float(self.offset[i]),
                float(self.velocity[i]),
                float(self.var_offset[i]),
                float(self.cov_ov[i]),
                float(self.var_velocity[i]),
                float(self.weight[i]),
                bool(self.dwelling[i]),
            )
            for i in range(len(self))
        ]

    def copy(self) -> "KalmanState":
        """An independent deep copy."""
        return KalmanState(
            edge=self.edge.copy(),
            offset=self.offset.copy(),
            velocity=self.velocity.copy(),
            var_offset=self.var_offset.copy(),
            cov_ov=self.cov_ov.copy(),
            var_velocity=self.var_velocity.copy(),
            weight=self.weight.copy(),
            dwelling=self.dwelling.copy(),
        )

    def to_state(self) -> Dict[str, object]:
        """JSON-safe snapshot; ``tolist`` round-trips float64 bit-exactly."""
        return {
            "edge": self.edge.tolist(),
            "offset": self.offset.tolist(),
            "velocity": self.velocity.tolist(),
            "var_offset": self.var_offset.tolist(),
            "cov_ov": self.cov_ov.tolist(),
            "var_velocity": self.var_velocity.tolist(),
            "weight": self.weight.tolist(),
            "dwelling": self.dwelling.tolist(),
        }

    @classmethod
    def from_state(cls, payload: Mapping[str, object]) -> "KalmanState":
        """Rebuild a belief from a :meth:`to_state` document."""
        try:
            return cls(
                edge=np.array(payload["edge"], dtype=np.int64),
                offset=np.array(payload["offset"], dtype=np.float64),
                velocity=np.array(payload["velocity"], dtype=np.float64),
                var_offset=np.array(payload["var_offset"], dtype=np.float64),
                cov_ov=np.array(payload["cov_ov"], dtype=np.float64),
                var_velocity=np.array(payload["var_velocity"], dtype=np.float64),
                weight=np.array(payload["weight"], dtype=np.float64),
                dwelling=np.array(payload["dwelling"], dtype=bool),
            )
        except KeyError as exc:
            raise FilterStateError(
                f"kalman state document is missing field {exc.args[0]!r}"
            ) from exc


def _interval_mass(mean: float, var: float, lo: float, hi: float) -> float:
    """Gaussian probability mass of ``[lo, hi]`` under ``N(mean, var)``."""
    sigma = math.sqrt(max(var, _VAR_FLOOR))
    scale = 1.0 / (sigma * math.sqrt(2.0))
    return 0.5 * (math.erf((hi - mean) * scale) - math.erf((lo - mean) * scale))


class GraphKalmanFilter(BayesFilter):
    """One object's Gaussian-mixture belief on the walking graph."""

    def __init__(self, backend: "KalmanBackend", state: KalmanState) -> None:
        self._backend = backend
        self._state = state

    # ------------------------------------------------------------------
    # contract
    # ------------------------------------------------------------------
    def predict(self, dt: float) -> None:
        backend = self._backend
        config = backend.config
        sig2 = config.kalman_accel_std ** 2
        q11 = sig2 * dt ** 3 / 3.0
        q12 = sig2 * dt ** 2 / 2.0
        q22 = sig2 * dt
        p_exit = config.room_exit_probability

        out: List[Row] = []
        for edge, off, vel, var_o, cov, var_v, w, dwelling in self._state.rows():
            if dwelling:
                if p_exit < 1.0:
                    out.append((edge, off, 0.0, _DWELL_VAR, 0.0, _VAR_FLOOR,
                                w * (1.0 - p_exit), True))
                if p_exit > 0.0:
                    out.append(backend.exit_row(edge, w * p_exit))
                continue
            new_off = off + vel * dt
            new_var_o = var_o + 2.0 * cov * dt + var_v * dt ** 2 + q11
            new_cov = cov + var_v * dt + q12
            new_var_v = var_v + q22
            self._place(out, edge, new_off, vel, new_var_o, new_cov,
                        new_var_v, w, depth=0)
        self._state = KalmanState.from_rows(self._consolidate(out))

    def update(
        self, second: int, readings: Sequence[str], negative_info: bool
    ) -> None:
        del second  # the likelihood conditions on the reading alone
        if readings:
            self._observe(readings[0])
        elif negative_info:
            self._observe_silence()

    def posterior(self) -> Dict[int, float]:
        backend = self._backend
        mass: Dict[int, float] = {}
        for edge, off, _vel, var_o, _cov, _var_v, w, dwelling in self._state.rows():
            if w <= 0.0:
                continue
            if dwelling:
                ap_id = backend.room_anchor(edge, off)
                mass[ap_id] = mass.get(ap_id, 0.0) + w
                continue
            anchors = backend.anchor_index.on_edge(edge)
            var = max(var_o, _VAR_FLOOR)
            pdf = [math.exp(-((a_off - off) ** 2) / (2.0 * var))
                   for a_off, _ap in anchors]
            total = sum(pdf)
            if total <= 0.0:
                ap_id = backend.nearest_anchor(edge, off)
                mass[ap_id] = mass.get(ap_id, 0.0) + w
                continue
            for (a_off, ap_id), p in zip(anchors, pdf):
                del a_off
                if p > 0.0:
                    mass[ap_id] = mass.get(ap_id, 0.0) + w * p / total
        total_mass = sum(mass.values())
        if total_mass <= 0.0:  # pragma: no cover - weights always sum to 1
            return {}
        return {ap_id: m / total_mass for ap_id, m in mass.items()}

    def state(self) -> FilterState:
        return self._state

    # ------------------------------------------------------------------
    # prediction internals
    # ------------------------------------------------------------------
    def _place(
        self,
        out: List[Row],
        edge: int,
        offset: float,
        velocity: float,
        var_o: float,
        cov: float,
        var_v: float,
        weight: float,
        depth: int,
    ) -> None:
        """Deposit a propagated Gaussian, splitting across junctions.

        Mirrors the particle motion model's ``_walk``: the mean walks
        across node transitions, the mixture branches where a particle
        would make a random turn.
        """
        backend = self._backend
        compiled = backend.compiled_graph
        length = float(compiled.edge_length[edge])
        if 0.0 <= offset <= length:
            out.append((edge, offset, velocity, var_o, cov, var_v, weight, False))
            return
        if depth >= _MAX_SPLIT_DEPTH:
            out.append((edge, min(max(offset, 0.0), length), velocity,
                        var_o, cov, var_v, weight, False))
            return
        if offset > length:
            node = int(compiled.edge_node_b[edge])
            overshoot = offset - length
        else:
            node = int(compiled.edge_node_a[edge])
            overshoot = -offset
        if compiled.node_is_room[node]:
            pinned = length if node == int(compiled.edge_node_b[edge]) else 0.0
            out.append((edge, pinned, 0.0, _DWELL_VAR, 0.0, _VAR_FLOOR,
                        weight, True))
            return
        speed = abs(velocity)
        for next_edge, fraction in backend.transition_weights(node, edge):
            next_length = float(compiled.edge_length[next_edge])
            if int(compiled.edge_node_a[next_edge]) == node:
                self._place(out, next_edge, overshoot, speed,
                            var_o, cov, var_v, weight * fraction, depth + 1)
            else:
                self._place(out, next_edge, next_length - overshoot, -speed,
                            var_o, cov, var_v, weight * fraction, depth + 1)

    def _consolidate(self, rows: List[Row]) -> List[Row]:
        """Merge close same-direction hypotheses, prune, cap, normalize."""
        merge_d = self._backend.config.kalman_merge_distance
        merged: List[Row] = []
        for row in rows:
            edge, off, vel, var_o, cov, var_v, w, dwelling = row
            if w <= 0.0:
                continue
            target = -1
            for i, other in enumerate(merged):
                if other[0] != edge or other[7] != dwelling:
                    continue
                if dwelling:
                    if other[1] == off:
                        target = i
                        break
                    continue
                same_heading = (other[2] >= 0.0) == (vel >= 0.0)
                if same_heading and abs(other[1] - off) <= merge_d:
                    target = i
                    break
            if target < 0:
                merged.append(row)
                continue
            merged[target] = self._moment_match(merged[target], row)
        total = sum(r[6] for r in merged)
        if total <= 0.0:  # pragma: no cover - inputs always carry weight
            return merged
        kept = [r for r in merged if r[6] / total >= _PRUNE_RATIO]
        kept.sort(key=lambda r: (-r[6], r[0], r[1], r[2]))
        kept = kept[: self._backend.config.kalman_max_hypotheses]
        total = sum(r[6] for r in kept)
        out = [
            (r[0], r[1], r[2], r[3], r[4], r[5], r[6] / total, r[7])
            for r in kept
        ]
        if obs.enabled():
            # Mixture health proxies for the epoch event log: how many
            # hypotheses each consolidation discards, and the entropy of
            # the surviving mixture (0 = collapsed to one hypothesis).
            obs.add(
                "filter.kalman.pruned_hypotheses", len(merged) - len(out)
            )
            entropy = -sum(
                r[6] * math.log(r[6]) for r in out if r[6] > 0.0
            )
            obs.observe("filter.kalman.entropy", entropy)
            obs.observe("filter.kalman.hypotheses", float(len(out)))
        return out

    @staticmethod
    def _moment_match(a: Row, b: Row) -> Row:
        """Collapse two same-edge Gaussians into one (preserving moments)."""
        w = a[6] + b[6]
        if a[7]:  # dwelling atoms: identical position, just pool weight
            return (a[0], a[1], 0.0, _DWELL_VAR, 0.0, _VAR_FLOOR, w, True)
        fa = a[6] / w
        fb = b[6] / w
        mo = fa * a[1] + fb * b[1]
        mv = fa * a[2] + fb * b[2]
        da_o, da_v = a[1] - mo, a[2] - mv
        db_o, db_v = b[1] - mo, b[2] - mv
        var_o = fa * (a[3] + da_o * da_o) + fb * (b[3] + db_o * db_o)
        cov = fa * (a[4] + da_o * da_v) + fb * (b[4] + db_o * db_v)
        var_v = fa * (a[5] + da_v * da_v) + fb * (b[5] + db_v * db_v)
        return (a[0], mo, mv, var_o, cov, var_v, w, False)

    # ------------------------------------------------------------------
    # update internals
    # ------------------------------------------------------------------
    def _observe(self, reader_id: str) -> None:
        """Reweight by the sensing likelihood, then Kalman-update position."""
        backend = self._backend
        config = backend.config
        rows = self._state.rows()
        masses = [backend.coverage_mass(r, reader_id) for r in rows]
        liks = [
            config.weight_hit * m + config.weight_miss * (1.0 - m)
            for m in masses
        ]
        total = sum(r[6] * lik for r, lik in zip(rows, liks))
        if total < _DEPLETION_EPS:
            # Depletion: no hypothesis is consistent with the detection.
            # Reseed from the observed reader's coverage — the object is
            # certainly there (paper Section 3.2, Case 1).
            obs.add("filter.depletion_reseeds")
            self._state = KalmanState.from_rows(
                backend.initial_rows(reader_id)
            )
            return
        r_var = (backend.readers[reader_id].activation_range / 2.0) ** 2
        out: List[Row] = []
        for (edge, off, vel, var_o, cov, var_v, w, dwelling), mass, lik in zip(
            rows, masses, liks
        ):
            w = w * lik / total
            if not dwelling and mass > 0.0:
                z = backend.measurement_offset(reader_id, edge, off)
                if z is not None:
                    s = var_o + r_var
                    k_o = var_o / s
                    k_v = cov / s
                    innov = z - off
                    length = float(backend.compiled_graph.edge_length[edge])
                    off = min(max(off + k_o * innov, 0.0), length)
                    vel = vel + k_v * innov
                    var_v = var_v - k_v * cov
                    cov = (1.0 - k_o) * cov
                    var_o = (1.0 - k_o) * var_o
            out.append((edge, off, vel, var_o, cov, var_v, w, dwelling))
        self._state = KalmanState.from_rows(self._consolidate(out))

    def _observe_silence(self) -> None:
        """Negative information: condition on *not* being detected."""
        backend = self._backend
        neg = backend.config.negative_likelihood
        rows = self._state.rows()
        liks = [
            neg * m + (1.0 - m)
            for m in (backend.silence_mass(r) for r in rows)
        ]
        total = sum(r[6] * lik for r, lik in zip(rows, liks))
        if total < _DEPLETION_EPS:  # pragma: no cover - lik is bounded below
            return
        out = [
            (r[0], r[1], r[2], r[3], r[4], r[5], r[6] * lik / total, r[7])
            for r, lik in zip(rows, liks)
        ]
        self._state = KalmanState.from_rows(self._consolidate(out))


@register_backend
class KalmanBackend(FilterBackend):
    """Registry wrapper precomputing reader coverage on the graph."""

    name = "kalman"
    state_version = 1
    cacheable = True

    def __init__(
        self,
        graph: WalkingGraph,
        anchor_index: AnchorIndex,
        readers: Union[Mapping[str, RFIDReader], Iterable[RFIDReader]],
        config: SimulationConfig,
        resampler: object = None,
    ) -> None:
        super().__init__(graph, anchor_index, readers, config, resampler=resampler)
        # Coverage intervals per reader per edge (and their union for
        # negative information), traced at the same resolution as the
        # particle filter's initialization scan.
        self._coverage: Dict[str, Dict[int, List[Interval]]] = {}
        self._covered_nodes: Dict[str, FrozenSet[int]] = {}
        for reader_id, reader in sorted(self.readers.items()):
            self._coverage[reader_id] = self._trace_coverage(reader)
            self._covered_nodes[reader_id] = self._trace_nodes(reader)
        self._silence_coverage: Dict[int, List[Interval]] = {}
        for per_edge in self._coverage.values():
            for edge_id, intervals in per_edge.items():
                self._silence_coverage.setdefault(edge_id, []).extend(intervals)
        for edge_id in self._silence_coverage:
            self._silence_coverage[edge_id] = self._merge_intervals(
                self._silence_coverage[edge_id]
            )
        self._silence_nodes: FrozenSet[int] = frozenset().union(
            *self._covered_nodes.values()
        )

    # ------------------------------------------------------------------
    # FilterBackend contract
    # ------------------------------------------------------------------
    def new_filter(
        self, history: ReadingHistory, rng: np.random.Generator
    ) -> BayesFilter:
        del rng  # the Kalman backend is deterministic
        return GraphKalmanFilter(
            self, KalmanState.from_rows(self.initial_rows(history.initial_reader_id))
        )

    def filter_from_state(
        self, state: FilterState, rng: np.random.Generator
    ) -> BayesFilter:
        del rng
        return GraphKalmanFilter(self, cast(KalmanState, state).copy())

    def state_from_dict(self, payload: Dict[str, object]) -> FilterState:
        return KalmanState.from_state(payload)

    # ------------------------------------------------------------------
    # coverage precomputation
    # ------------------------------------------------------------------
    def _trace_coverage(self, reader: RFIDReader) -> Dict[int, List[Interval]]:
        """Coverage intervals of one reader on every edge."""
        circle = reader.detection_circle
        per_edge: Dict[int, List[Interval]] = {}
        for edge in self.graph.edges:
            steps = max(int(edge.length / _COVERAGE_SCAN_STEP), 1)
            inside_from: Optional[float] = None
            last_inside = 0.0
            intervals: List[Interval] = []
            for i in range(steps + 1):
                offset = min(i * _COVERAGE_SCAN_STEP, edge.length)
                if circle.contains(edge.point_at(offset)):
                    if inside_from is None:
                        inside_from = offset
                    last_inside = offset
                elif inside_from is not None:
                    intervals.append(self._pad(inside_from, last_inside, edge.length))
                    inside_from = None
            if inside_from is not None:
                intervals.append(self._pad(inside_from, last_inside, edge.length))
            if intervals:
                per_edge[edge.edge_id] = self._merge_intervals(intervals)
        return per_edge

    def _trace_nodes(self, reader: RFIDReader) -> FrozenSet[int]:
        """Indices of graph nodes inside one reader's range."""
        compiled = self.compiled_graph
        circle = reader.detection_circle
        nodes = {n.node_id: n for n in self.graph.nodes}
        return frozenset(
            i
            for i, node_id in enumerate(compiled.node_ids)
            if circle.contains(nodes[node_id].point)
        )

    @staticmethod
    def _pad(lo: float, hi: float, length: float) -> Interval:
        """Widen a scanned interval by half a scan step on each side."""
        half = _COVERAGE_SCAN_STEP / 2.0
        return (max(lo - half, 0.0), min(hi + half, length))

    @staticmethod
    def _merge_intervals(intervals: List[Interval]) -> List[Interval]:
        """Union of possibly-overlapping intervals, sorted."""
        merged: List[Interval] = []
        for lo, hi in sorted(intervals):
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        return merged

    # ------------------------------------------------------------------
    # helpers used by the filter
    # ------------------------------------------------------------------
    def initial_rows(self, reader_id: str) -> List[Row]:
        """Seed hypotheses uniform over a reader's coverage (± direction)."""
        config = self.config
        rows: List[Row] = []
        per_edge = self._coverage.get(reader_id, {})
        var_v = max(config.speed_std ** 2, _VAR_FLOOR)
        for edge_id in sorted(per_edge):
            for lo, hi in per_edge[edge_id]:
                span = max(hi - lo, _COVERAGE_SCAN_STEP)
                center = (lo + hi) / 2.0
                var_o = max(span ** 2 / 12.0, _VAR_FLOOR)
                for sign in (1.0, -1.0):
                    rows.append((edge_id, center, sign * config.speed_mean,
                                 var_o, 0.0, var_v, span / 2.0, False))
        if not rows:
            # The circle misses the graph (malformed deployment): collapse
            # onto the closest graph location, like the particle filter.
            reader = self.readers[reader_id]
            loc, _ = self.graph.locate(reader.position)
            var_o = max((reader.activation_range / 2.0) ** 2, _VAR_FLOOR)
            for sign in (1.0, -1.0):
                rows.append((loc.edge_id, loc.offset, sign * config.speed_mean,
                             var_o, 0.0, var_v, 0.5, False))
        total = sum(r[6] for r in rows)
        rows = [
            (r[0], r[1], r[2], r[3], r[4], r[5], r[6] / total, r[7])
            for r in rows
        ]
        rows.sort(key=lambda r: (-r[6], r[0], r[1], r[2]))
        return rows[: config.kalman_max_hypotheses * 2]

    def transition_weights(
        self, node: int, arrival_edge: int
    ) -> List[Tuple[int, float]]:
        """Outgoing edges and their probabilities at a junction.

        The closed-form counterpart of the particle motion model's
        ``_choose_next_edge``: the arrival edge is excluded unless the
        node is a dead end, and door spurs collectively receive
        ``door_entry_probability`` when hallways are also available.
        """
        compiled = self.compiled_graph
        candidates = compiled.adjacency[node]
        if len(candidates) > 1:
            candidates = candidates[candidates != arrival_edge]
        if len(candidates) == 1:
            return [(int(candidates[0]), 1.0)]
        door_mask = compiled.edge_is_door[candidates]
        doors = [int(e) for e in candidates[door_mask]]
        hallways = [int(e) for e in candidates[~door_mask]]
        if doors and hallways:
            p_door = self.config.door_entry_probability
            return (
                [(e, p_door / len(doors)) for e in doors]
                + [(e, (1.0 - p_door) / len(hallways)) for e in hallways]
            )
        pool = doors or hallways
        return [(e, 1.0 / len(pool)) for e in pool]

    def exit_row(self, edge: int, weight: float) -> Row:
        """A hypothesis leaving its room through the door edge."""
        compiled = self.compiled_graph
        length = float(compiled.edge_length[edge])
        if compiled.node_is_room[int(compiled.edge_node_b[edge])]:
            offset, velocity = length, -self.config.speed_mean
        else:
            offset, velocity = 0.0, self.config.speed_mean
        var_v = max(self.config.speed_std ** 2, _VAR_FLOOR)
        return (edge, offset, velocity, _DWELL_VAR, 0.0, var_v, weight, False)

    def coverage_mass(self, row: Row, reader_id: str) -> float:
        """Probability that a hypothesis lies inside a reader's range."""
        edge, off, _vel, var_o, _cov, _var_v, _w, dwelling = row
        if dwelling:
            node = self._pinned_node(edge, off)
            return 1.0 if node in self._covered_nodes.get(reader_id, frozenset()) else 0.0
        intervals = self._coverage.get(reader_id, {}).get(edge)
        if not intervals:
            return 0.0
        mass = sum(_interval_mass(off, var_o, lo, hi) for lo, hi in intervals)
        return min(max(mass, 0.0), 1.0)

    def silence_mass(self, row: Row) -> float:
        """Probability that a hypothesis lies inside *any* reader's range."""
        edge, off, _vel, var_o, _cov, _var_v, _w, dwelling = row
        if dwelling:
            return 1.0 if self._pinned_node(edge, off) in self._silence_nodes else 0.0
        intervals = self._silence_coverage.get(edge)
        if not intervals:
            return 0.0
        mass = sum(_interval_mass(off, var_o, lo, hi) for lo, hi in intervals)
        return min(max(mass, 0.0), 1.0)

    def measurement_offset(
        self, reader_id: str, edge: int, mean_offset: float
    ) -> Optional[float]:
        """The measurement ``z``: center of the nearest coverage interval."""
        intervals = self._coverage.get(reader_id, {}).get(edge)
        if not intervals:
            return None
        centers = [(lo + hi) / 2.0 for lo, hi in intervals]
        return min(centers, key=lambda c: abs(c - mean_offset))

    def room_anchor(self, edge: int, pinned_offset: float) -> int:
        """Anchor id of the room node a dwelling hypothesis sits at."""
        node = self._pinned_node(edge, pinned_offset)
        node_id = self.compiled_graph.node_ids[node]
        return self.anchor_index.node_anchor(node_id).ap_id

    def nearest_anchor(self, edge: int, offset: float) -> int:
        """Anchor id nearest to an ``(edge, offset)`` position (fallback)."""
        compiled = self.compiled_graph
        x, y = compiled.points(
            np.array([edge], dtype=np.int64), np.array([offset], dtype=np.float64)
        )
        return int(self.compiled_anchors.nearest(x, y)[0])

    def _pinned_node(self, edge: int, pinned_offset: float) -> int:
        """The node index a dwelling hypothesis is pinned at."""
        compiled = self.compiled_graph
        length = float(compiled.edge_length[edge])
        if pinned_offset >= length / 2.0:
            return int(compiled.edge_node_b[edge])
        return int(compiled.edge_node_a[edge])
