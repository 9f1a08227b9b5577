"""The object motion model on the walking graph (paper Sections 3.1, 4.4).

Particles move forward with constant per-particle speeds drawn from
``N(1 m/s, 0.1)``, choose a random direction at intersections, and enter /
leave rooms: a particle that reaches a room node dwells there and moves
out with probability 0.1 per second (Algorithm 2, lines 8-16).

Every draw comes from a :class:`~repro.rng.CounterDraws` over the stack
being stepped, so each operation below is one array pass over every
block, and a block draws the same values alone or in any stack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Circle
from repro.core.compiled import CompiledGraph
from repro.core.particles import ParticleSet
from repro.rng import CounterDraws, Draw

#: Scan resolution (meters) when enumerating edge positions inside a circle.
_INIT_SCAN_STEP = 0.25

#: Cap on edge hops per particle per step; at >= 0.05 m/s minimum speed and
#: 1 s steps a particle can never legitimately cross this many edges.
_MAX_HOPS = 64


class GraphMotionModel:
    """Graph-constrained particle motion."""

    def __init__(
        self,
        compiled: CompiledGraph,
        speed_mean: float = 1.0,
        speed_std: float = 0.1,
        room_exit_probability: float = 0.1,
        door_entry_probability: float = 0.2,
        min_speed: float = 0.05,
    ):
        if speed_mean <= 0:
            raise ValueError("speed_mean must be positive")
        if not 0.0 <= room_exit_probability <= 1.0:
            raise ValueError("room_exit_probability must be in [0, 1]")
        if not 0.0 <= door_entry_probability <= 1.0:
            raise ValueError("door_entry_probability must be in [0, 1]")
        self.compiled = compiled
        self.speed_mean = speed_mean
        self.speed_std = speed_std
        self.room_exit_probability = room_exit_probability
        self.door_entry_probability = door_entry_probability
        self.min_speed = min_speed
        #: Seed sets per circle, filled lazily by :meth:`positions_in_circle`.
        self._seed_sets: Dict[Circle, Tuple[np.ndarray, np.ndarray]] = {}
        self._law = self._junction_law(compiled, door_entry_probability)
        #: Per heading: the offset a crosser enters it at (its far end's
        #: opposite: 0.0 heading forward, the length heading back).
        self._entry_offset = compiled.crossings.far_array[
            np.arange(len(compiled.crossings.far)) ^ 1
        ]
        # Per edge, where a room leaver starts: the room end, heading out.
        into_b = compiled.node_is_room[compiled.edge_node_b]
        self._exit_offset = np.where(into_b, compiled.edge_length, 0.0)
        self._exit_direction = np.where(into_b, -1, 1).astype(np.int8)

    @staticmethod
    def _junction_law(compiled: CompiledGraph, door_probability: float) -> np.ndarray:
        """Per heading, one row of what a crosser meets at the far node.

        Columns: ``0`` the far node's offset, ``1`` the direction, ``2``
        the edge length, ``3`` whether the node is a room; then how one
        uniform ``u`` picks the entry (:meth:`_cross`): ``4`` the door
        threshold ``t`` (``u < t`` takes the door pool: the door
        probability when both pools are offered, 1 for doors only, 0 for
        hallways only or a forced entry), ``5`` and ``6`` the spans
        ``doors / t`` and ``hallways / (1 - t)`` that stretch ``u``'s
        share of [0, 1) over its pool, ``7`` the door pool's last column,
        ``8`` the hallway pool's last column and ``9`` its first (the
        door count).
        """
        crossings = compiled.crossings
        doors = crossings.door_count.astype(np.float64)
        hallways = crossings.hallway_count.astype(np.float64)
        threshold = np.where(
            (doors > 0) & (hallways > 0), door_probability, np.where(doors > 0, 1.0, 0.0)
        )
        door_span = np.divide(doors, threshold, out=np.zeros_like(threshold), where=threshold > 0.0)
        hallway_span = np.divide(
            hallways, 1.0 - threshold, out=np.zeros_like(threshold), where=threshold < 1.0
        )
        return np.stack([
            crossings.far_array, crossings.sign_array, crossings.length_array,
            crossings.room_array, threshold, door_span, hallway_span,
            doors - 1.0, doors + hallways - 1.0, doors,
        ], axis=1).astype(np.float64)

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def draw_speeds(
        self, draws: CounterDraws, rows: Optional[np.ndarray] = None, hop: int = 0
    ) -> np.ndarray:
        """Speeds ~ N(mean, std) for ``rows`` of the stack, floored at ``min_speed``.

        Box-Muller from the rows' ``SPEED_RADIUS`` and ``SPEED_ANGLE``
        uniforms at ``hop`` (0 when seeding, 1 when leaving a room).
        """
        radius, angle = draws.uniforms(Draw.SPEED_RADIUS, rows, hop, width=2)
        return self._speeds(radius, angle)

    def _speeds(self, radius: np.ndarray, angle: np.ndarray) -> np.ndarray:
        normal = np.sqrt(-2.0 * np.log1p(-radius)) * np.cos(2.0 * math.pi * angle)
        return np.maximum(self.speed_mean + self.speed_std * normal, self.min_speed)

    def positions_in_circle(self, circle: Circle) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ``(edge_ids, offsets)`` positions inside ``circle``.

        Used to seed particles uniformly within a reader's activation
        range (Algorithm 2 line 5, and the depletion reseed of Section
        3.2). The first call for a circle scans every edge in
        ``_INIT_SCAN_STEP`` steps, in edge order, skipping edges whose
        path lies wholly outside the circle. The result is memoized per
        circle as two read-only arrays (``int64`` edge ids, ``float64``
        offsets); readers never move, so every later call returns the
        same arrays without rescanning.
        """
        cached = self._seed_sets.get(circle)
        if cached is not None:
            return cached
        # Every scanned point lies on one of the edge's path legs, so an
        # edge whose legs all stay farther than the radius cannot
        # contribute. The margin dwarfs float rounding and is far below
        # the scan step.
        reach = circle.radius + 1e-6
        edge_ids: List[int] = []
        offsets: List[float] = []
        for edge in self.compiled.graph.edges:
            if all(
                seg.distance_to_point(circle.center) > reach
                for seg in edge.path.segments
            ):
                continue
            length = edge.length
            steps = max(int(length / _INIT_SCAN_STEP), 1)
            for i in range(steps + 1):
                offset = min(i * _INIT_SCAN_STEP, length)
                if circle.contains(edge.point_at(offset)):
                    edge_ids.append(edge.edge_id)
                    offsets.append(offset)
        edge_array = np.array(edge_ids, dtype=np.int64)
        offset_array = np.array(offsets, dtype=np.float64)
        edge_array.flags.writeable = False
        offset_array.flags.writeable = False
        self._seed_sets[circle] = (edge_array, offset_array)
        return edge_array, offset_array

    def initialize_in_circles(
        self, circles: Sequence[Circle], draws: CounterDraws
    ) -> ParticleSet:
        """Seed one block of ``draws.size`` particles per circle, in one pass.

        Block ``b`` lies uniformly on the graph within ``circles[b]`` and
        draws from block ``b`` of ``draws``: a seed position among the
        circle's candidates, a jitter of up to half a scan step, a random
        direction and a Gaussian speed. If a circle misses the graph
        entirely (malformed deployment), its block collapses onto the
        closest graph location instead of failing, so the filter stays
        usable.
        """
        size = draws.size
        unique = list(dict.fromkeys(circles))
        sets = [self.positions_in_circle(circle) for circle in unique]
        counts = np.array([len(edges) for edges, _ in sets], dtype=np.int64)
        starts = np.cumsum(counts) - counts
        which = np.array([unique.index(circle) for circle in circles], dtype=np.int64)
        count = np.repeat(counts[which], size)
        particles = ParticleSet.empty(len(circles) * size)
        pick, jitter, direction, radius, angle = draws.uniforms(Draw.INIT_PICK, width=5)
        picks = np.repeat(starts[which], size) + np.minimum(
            (pick * count).astype(np.int64), count - 1
        )
        jitter = (jitter - 0.5) * _INIT_SCAN_STEP
        if counts.all():
            edge = np.concatenate([edges for edges, _ in sets])[picks]
            particles.edge[:] = edge
            particles.offset[:] = np.minimum(
                np.maximum(np.concatenate([offsets for _, offsets in sets])[picks] + jitter, 0.0),
                self.compiled.edge_length[edge],
            )
        else:
            for block, circle in enumerate(circles):
                rows = slice(block * size, (block + 1) * size)
                edges, offsets = sets[which[block]]
                if len(edges):
                    local = picks[rows] - starts[which[block]]
                    particles.edge[rows] = edges[local]
                    particles.offset[rows] = np.minimum(
                        np.maximum(offsets[local] + jitter[rows], 0.0),
                        self.compiled.edge_length[edges[local]],
                    )
                else:
                    loc, _ = self.compiled.graph.locate(circle.center)
                    particles.edge[rows] = loc.edge_id
                    particles.offset[rows] = loc.offset
        particles.direction[:] = np.where(direction < 0.5, 1, -1)
        particles.speed[:] = self._speeds(radius, angle)
        particles.weight[:] = 1.0 / max(size, 1)
        return particles

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(self, particles: ParticleSet, draws: CounterDraws, dt: float = 1.0) -> None:
        """Advance every particle by ``dt`` seconds, in place.

        ``particles`` is a stack of ``len(draws)`` equal blocks of rows,
        one per object, and row ``r`` draws only row ``r``'s uniforms.
        """
        # 1. Dwelling particles decide whether to leave their room.
        dwellers = particles.dwelling.nonzero()[0]
        if len(dwellers):
            self._exit_rooms(particles, dwellers, draws)

        # 2. Vectorized move for particles that stay on their edge.
        moving = ~particles.dwelling
        distance = particles.speed if dt == 1.0 else particles.speed * dt
        tentative = particles.offset + particles.direction * distance
        lengths = self.compiled.edge_length[particles.edge]
        stays = moving & (tentative >= 0.0) & (tentative <= lengths)
        np.copyto(particles.offset, tentative, where=stays)

        # 3. Walk the edge crossers across node transitions (``stays``
        # is a subset of ``moving``, so ``^`` leaves the movers that left).
        crossers = (moving ^ stays).nonzero()[0]
        if len(crossers):
            self._cross(particles, crossers, distance[crossers], draws)

    def _exit_rooms(
        self, particles: ParticleSet, dwelling_rows: np.ndarray, draws: CounterDraws
    ) -> None:
        """Move the dwellers that leave their room onto their door edge.

        A dweller leaves when its ``EXIT`` uniform is below the exit
        probability, and takes a fresh speed (hop 1 of the speed
        draws). It heads out of the room: a dweller sits at the room end
        of a door edge.
        """
        rows = dwelling_rows[draws.uniforms(Draw.EXIT, dwelling_rows) < self.room_exit_probability]
        if not len(rows):
            return
        edge = particles.edge[rows]
        particles.offset[rows] = self._exit_offset[edge]
        particles.direction[rows] = self._exit_direction[edge]
        particles.speed[rows] = self.draw_speeds(draws, rows, hop=1)
        particles.dwelling[rows] = False

    def _cross(
        self,
        particles: ParticleSet,
        rows: np.ndarray,
        distance: np.ndarray,
        draws: CounterDraws,
    ) -> None:
        """Walk each crosser until its ``distance`` is spent, hop-major.

        Each pass takes every row still walking to its far node. A row
        that stops short settles there; one that reaches a room node
        dwells; the rest continue on an entry of
        :attr:`CompiledGraph.crossings` with what is left of their
        distance. A row still walking after ``_MAX_HOPS`` passes stays at
        the start of its last entry.

        The paper's model is "particles pick a random direction at
        intersections"; a uniform choice over incident edges would send a
        particle through every door with probability ~1/2, far more often
        than people actually enter rooms. We therefore bias the choice:
        with probability ``door_entry_probability`` the particle turns
        into a (random) door spur when one is available, otherwise it
        continues on a random hallway edge. One ``WALK`` uniform per row
        and hop decides both: ``u`` below the heading's door threshold
        ``t`` takes the door pool, and ``u``'s place in its share of
        [0, 1), stretched over the pool (:meth:`_junction_law`), picks
        the entry. A forced entry is a hallway pool of one, which the
        uniform cannot change.
        """
        law = self._law
        key = particles.edge[rows] * 2 + (particles.direction[rows] > 0)
        offset = particles.offset[rows]
        dwelling = np.zeros(len(rows), dtype=bool)
        walking = np.arange(len(rows))
        heading, start, left = key, offset, distance
        for hop in range(_MAX_HOPS):
            at = law[heading]
            sign = at[:, 1]
            space = (at[:, 0] - start) * sign
            stops = left <= space + 1e-12
            stopped = np.count_nonzero(stops)
            if stopped:
                ends = np.minimum(np.maximum(start + sign * left, 0.0), at[:, 2])
                if stopped == len(walking):
                    offset[walking] = ends
                    break
                offset[walking[stops]] = ends[stops]
                go = ~stops
                walking, heading, left, space, at = (
                    walking[go], heading[go], left[go], space[go], at[go]
                )
            left = left - space
            room = at[:, 3] > 0.0
            if np.count_nonzero(room):
                offset[walking[room]] = at[room, 0]
                dwelling[walking[room]] = True
                go = ~room
                walking, heading, left, at = walking[go], heading[go], left[go], at[go]
                if not len(walking):
                    break
            u = draws.uniforms(Draw.WALK, rows[walking], hop)
            threshold = at[:, 4]
            door = u < threshold
            stretched = np.where(door, u * at[:, 5], (u - threshold) * at[:, 6] + at[:, 9])
            column = np.minimum(stretched, np.where(door, at[:, 7], at[:, 8]))
            heading = self.compiled.crossings.pools[heading, column.astype(np.int64)]
            start = self._entry_offset[heading]
            key[walking] = heading
            offset[walking] = start

        particles.edge[rows] = key >> 1
        particles.offset[rows] = offset
        particles.direction[rows] = self.compiled.crossings.sign_array[key]
        if np.count_nonzero(dwelling):  # crossers were moving, so their flags are all False
            particles.dwelling[rows] = dwelling
