"""The object motion model on the walking graph (paper Sections 3.1, 4.4).

Particles move forward with constant per-particle speeds drawn from
``N(1 m/s, 0.1)``, choose a random direction at intersections, and enter /
leave rooms: a particle that reaches a room node dwells there and moves
out with probability 0.1 per second (Algorithm 2, lines 8-16).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Circle
from repro.core.compiled import CompiledGraph
from repro.core.particles import ParticleSet
from repro.rng import RngLike, make_rng

#: Scan resolution (meters) when enumerating edge positions inside a circle.
_INIT_SCAN_STEP = 0.25

#: Cap on edge hops per particle per step; at >= 0.05 m/s minimum speed and
#: 1 s steps a particle can never legitimately cross this many edges.
_MAX_HOPS = 64

#: Crossers in one ``step`` from which the walk runs as array passes over
#: the stack; fewer (a lone cloud, a replay tail) take the scalar walk.
_STACK_MIN_CROSSERS = 64


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

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def draw_speeds(self, n: int, rng: RngLike = None) -> np.ndarray:
        """Speeds ~ N(mean, std), floored at ``min_speed``."""
        generator = make_rng(rng)
        return np.maximum(
            generator.normal(self.speed_mean, self.speed_std, size=n),
            self.min_speed,
        )

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

    def initialize_in_circle(
        self, n: int, circle: Circle, rng: RngLike = None
    ) -> ParticleSet:
        """Seed ``n`` particles uniformly on the graph within ``circle``.

        Each particle picks a random direction and a Gaussian speed. If
        the circle misses the graph entirely (malformed deployment), the
        particles collapse onto the closest graph location instead of
        failing, so the filter stays usable.
        """
        generator = make_rng(rng)
        cand_edge, cand_offset = self.positions_in_circle(circle)
        particles = ParticleSet.empty(n)
        if len(cand_edge):
            picks = generator.integers(0, len(cand_edge), size=n)
            jitter = generator.uniform(-_INIT_SCAN_STEP / 2, _INIT_SCAN_STEP / 2, size=n)
            edge = cand_edge[picks]
            particles.edge[:] = edge
            particles.offset[:] = np.minimum(
                np.maximum(cand_offset[picks] + jitter, 0.0),
                self.compiled.edge_length[edge],
            )
        else:
            loc, _ = self.compiled.graph.locate(circle.center)
            particles.edge[:] = loc.edge_id
            particles.offset[:] = loc.offset
        particles.direction[:] = np.where(
            generator.random(n) < 0.5, 1, -1
        ).astype(np.int8)
        particles.speed[:] = self.draw_speeds(n, generator)
        particles.dwelling[:] = False
        particles.weight[:] = 1.0 / max(n, 1)
        return particles

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def step(
        self,
        particles: ParticleSet,
        rngs: Sequence[np.random.Generator],
        dt: float = 1.0,
    ) -> None:
        """Advance every particle by ``dt`` seconds, in place.

        ``particles`` is a stack of ``len(rngs)`` equal blocks of rows, one
        per object; a single cloud passes ``[rng]``. Block ``b`` draws
        only from ``rngs[b]``, in row order, so each block draws exactly
        what it would draw stepped alone.
        """
        compiled = self.compiled
        size = len(particles) // len(rngs)

        # 1. Dwelling particles decide whether to leave their room.
        if particles.dwelling.any():
            self._exit_rooms(particles, np.nonzero(particles.dwelling)[0], rngs, size)

        # 2. Vectorized move for particles that stay on their edge.
        moving = ~particles.dwelling
        distance = particles.speed * dt
        tentative = particles.offset + particles.direction * distance
        lengths = compiled.edge_length[particles.edge]
        stays = moving & (tentative >= 0.0) & (tentative <= lengths)
        np.copyto(particles.offset, tentative, where=stays)

        # 3. Walk the edge crossers across node transitions (``stays``
        # is a subset of ``moving``, so ``^`` leaves the movers that left).
        crossers = np.nonzero(moving ^ stays)[0]
        if len(crossers):
            self._cross(particles, crossers, distance[crossers], rngs, size)

    def _exit_rooms(
        self,
        particles: ParticleSet,
        dwelling_rows: np.ndarray,
        rngs: Sequence[np.random.Generator],
        size: int,
    ) -> None:
        """Move the dwellers that leave their room onto their door edge.

        Each block with dwellers draws, from its own generator, one
        uniform per dweller and then one speed per leaver (one
        ``normal(size=k)`` call yields exactly the values of ``k``
        size-1 calls). A leaver heads out of the room: a dweller sits at
        the room end of a door edge.
        """
        if len(rngs) == 1:
            groups = [(dwelling_rows, rngs[0])]
        else:
            owners = dwelling_rows // size
            cuts = [0, *(np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist(), len(owners)]
            groups = [
                (dwelling_rows[start:stop], rngs[int(owners[start])])
                for start, stop in zip(cuts, cuts[1:])
            ]
        leavers = []
        speeds = []
        for rows, generator in groups:
            exits = rows[generator.random(len(rows)) < self.room_exit_probability]
            if len(exits):
                leavers.append(exits)
                speeds.append(self.draw_speeds(len(exits), generator))
        if not leavers:
            return
        rows = leavers[0] if len(leavers) == 1 else np.concatenate(leavers)
        compiled = self.compiled
        edge = particles.edge[rows]
        into_b = compiled.node_is_room[compiled.edge_node_b[edge]]
        particles.offset[rows] = np.where(into_b, compiled.edge_length[edge], 0.0)
        particles.direction[rows] = np.where(into_b, -1, 1)
        particles.speed[rows] = speeds[0] if len(speeds) == 1 else np.concatenate(speeds)
        particles.dwelling[rows] = False

    def _cross(
        self,
        particles: ParticleSet,
        rows: np.ndarray,
        distance: np.ndarray,
        rngs: Sequence[np.random.Generator],
        size: int,
    ) -> None:
        """Walk each crosser until its ``distance`` is spent, in row order.

        A particle that reaches a room node dwells there. At a hallway
        node it continues on an edge read from the per-heading
        :attr:`CompiledGraph.crossings`.
        The paper's model is "particles pick a random direction at
        intersections"; a uniform choice over incident edges would send a
        particle through every door with probability ~1/2, far more often
        than people actually enter rooms. We therefore bias the choice:
        with probability ``door_entry_probability`` the particle turns
        into a (random) door spur when one is available, otherwise it
        continues on a random hallway edge. A pool of one edge is taken
        without a draw: ``rng.integers(1)`` would not advance the
        generator anyway. Row ``r`` draws from ``rngs[r // size]``.

        From ``_STACK_MIN_CROSSERS`` crossers on, :meth:`_cross_stack`
        moves the rows that cross at most one node in array passes and
        hands the rest to the same scalar :meth:`_walk`.
        """
        if len(rows) >= _STACK_MIN_CROSSERS:
            self._cross_stack(particles, rows, distance, rngs, size)
            return
        generators = (
            [rngs[owner] for owner in (rows // size).tolist()] if len(rngs) > 1
            else rngs * len(rows)
        )
        edges, offsets, directions, dwelling = self._walk(
            (particles.edge[rows] * 2 + (particles.direction[rows] > 0)).tolist(),
            particles.offset[rows].tolist(),
            distance.tolist(),
            generators,
        )
        particles.edge[rows] = edges
        particles.offset[rows] = offsets
        particles.direction[rows] = directions
        if dwelling is not None:  # crossers were moving, so their flags are all False
            particles.dwelling[rows] = dwelling

    def _walk(
        self,
        keys: List[int],
        offsets: List[float],
        distances: List[float],
        generators: Sequence[np.random.Generator],
    ) -> Tuple[List[int], List[float], List[int], Optional[List[bool]]]:
        """The scalar crossing walk of :meth:`_cross`, one row at a time.

        Row ``i`` starts on heading ``keys[i]`` at ``offsets[i]`` and
        draws from ``generators[i]``. Returns the rows' edges, offsets
        (the ``offsets`` list, updated) and directions, and their
        dwelling flags, or ``None`` when no row reached a room.
        """
        crossings = self.compiled.crossings
        far = crossings.far
        sign = crossings.sign
        length = crossings.length
        room = crossings.room
        forced = crossings.forced
        door_pools = crossings.doors
        hallway_pools = crossings.hallways
        door_probability = self.door_entry_probability
        edges = [0] * len(keys)
        directions = [0] * len(keys)
        dwelling = [False] * len(keys)
        dwelled = False

        for i, remaining in enumerate(distances):
            key, offset = keys[i], offsets[i]
            for _ in range(_MAX_HOPS):
                # Distance to the far node: length - offset heading
                # forward, offset heading back ((0.0 - offset) * -1, exact).
                space = (far[key] - offset) * sign[key]
                if remaining <= space + 1e-12:
                    offset += sign[key] * remaining
                    if offset < 0.0:
                        offset = 0.0
                    elif offset > length[key]:
                        offset = length[key]
                    break
                remaining -= space
                entry = forced[key]
                if entry is None:
                    if room[key]:
                        offset = far[key]
                        dwelling[i] = dwelled = True
                        break
                    doors, hallways = door_pools[key], hallway_pools[key]
                    if doors and hallways:
                        draw = generators[i].random()
                        pool = doors if draw < door_probability else hallways
                    else:
                        pool = doors or hallways
                    entry = (
                        pool[0] if len(pool) == 1
                        else pool[generators[i].integers(len(pool))]
                    )
                key, offset = entry
            edges[i], offsets[i], directions[i] = key >> 1, offset, sign[key]
        return edges, offsets, directions, (dwelling if dwelled else None)

    def _cross_stack(
        self,
        particles: ParticleSet,
        rows: np.ndarray,
        distance: np.ndarray,
        rngs: Sequence[np.random.Generator],
        size: int,
    ) -> None:
        """:meth:`_cross` for many crossers, with every draw of the walk.

        One array pass takes each row to its far node with the walk's own
        expressions. A row that stops short, dwells, or crosses a
        ``FORCED``, ``COIN`` or ``PICK`` node with no more than its
        heading's ``reach`` left moves by gathers; the rest (``OTHER``
        nodes, and rows that may cross a second node) take :meth:`_walk`.
        The draws then go out in row order: each run of consecutive
        ``COIN`` rows of one block takes one ``random(k)`` call (as
        ``random(out=...)``), which yields the values, and leaves the
        state, of ``k`` ``random()`` calls; a ``PICK`` row takes its
        ``integers(n)`` and a walked row its own draws at their turn.
        """
        crossings = self.compiled.crossings
        key = particles.edge[rows] * 2 + (particles.direction[rows] > 0)
        offset = particles.offset[rows]
        far = crossings.far_array[key]
        space = (far - offset) * crossings.sign_array[key]
        stops = distance <= space + 1e-12
        remaining = distance - space
        kind = crossings.kind[key]
        dwelling = ~stops & (kind == crossings.ROOM)
        hops = ~(stops | dwelling)
        walked = hops & (remaining > crossings.reach[key])
        moved = hops & ~walked
        coin = moved & (kind == crossings.COIN)
        drawers = np.flatnonzero(coin | (moved & (kind == crossings.PICK)) | walked)

        column = np.zeros(len(rows), dtype=np.int64)
        walks = []
        if len(drawers):
            owners = rows[drawers] // size
            batched = coin[drawers]
            fresh = np.ones(len(drawers), dtype=bool)
            fresh[1:] = ~(batched[1:] & batched[:-1] & (owners[1:] == owners[:-1]))
            starts = np.flatnonzero(fresh)
            uniforms = np.zeros(len(drawers))
            picks = np.zeros(len(drawers), dtype=np.int64)
            for start, stop, owner, batch, pool_size, walk in zip(
                starts.tolist(),
                [*starts[1:].tolist(), len(drawers)],
                owners[starts].tolist(),
                batched[starts].tolist(),
                crossings.pool_size[key[drawers[starts]]].tolist(),
                walked[drawers[starts]].tolist(),
            ):
                generator = rngs[owner]
                if batch:
                    generator.random(out=uniforms[start:stop])
                elif not walk:
                    picks[start] = generator.integers(pool_size)
                else:
                    row = int(drawers[start])
                    walks.append((row, self._walk(
                        [int(key[row])], [float(offset[row])], [float(distance[row])], [generator]
                    )))
            # A coin row takes its door (column 0) when its draw is below
            # the door probability, else its hallway (column 1).
            column[drawers] = np.where(
                batched, uniforms >= self.door_entry_probability, picks
            )
        entry = crossings.entries[key, column]
        heading = np.where(moved, entry, key)
        origin = np.where(moved, crossings.far_array[entry ^ 1], offset)
        sign = crossings.sign_array[heading]
        length = crossings.length_array[heading]
        ends = origin + sign * np.where(moved, remaining, distance)
        ends = np.where(ends < 0.0, 0.0, np.where(ends > length, length, ends))
        ends = np.where(dwelling, far, ends)
        edges = heading >> 1
        for row, (edge, end, direction, dwelled) in walks:
            edges[row], ends[row], sign[row] = edge[0], end[0], direction[0]
            if dwelled is not None:
                dwelling[row] = True

        particles.edge[rows] = edges
        particles.offset[rows] = ends
        particles.direction[rows] = sign
        if dwelling.any():  # crossers were moving, so their flags are all False
            particles.dwelling[rows] = dwelling
