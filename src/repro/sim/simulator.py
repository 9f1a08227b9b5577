"""The complete simulator (paper Figure 8).

Wires the true trace generator, the raw reading generator, two query
engines and ground truth together. Both engines are
:class:`~repro.queries.engine.IndoorQueryEngine` instances that differ
only in their pluggable location estimator: ``pf_engine`` runs the
configured filter backend (the particle filter by default) and
``sm_engine`` runs the symbolic baseline (``filter_backend="symbolic"``).
They read the *same* raw reading stream through one shared collector,
and accuracy is judged against the same true traces. Every filter draw
is keyed by ``(config.seed, object, stepped second)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import repro.obs as obs
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.core.resampling import systematic_resample
from repro.filters.registry import BackendSpec
from repro.floorplan.plan import FloorPlan
from repro.floorplan.presets import paper_office_plan
from repro.geometry import Point, Rect
from repro.graph.anchors import build_anchor_index
from repro.graph.location import GraphLocation
from repro.graph.walking_graph import build_walking_graph
from repro.queries.engine import IndoorQueryEngine
from repro.rfid.deployment import deploy_readers_uniform
from repro.rfid.reader import RFIDReader
from repro.rng import child_rng
from repro.sim.readings_sim import RawReadingGenerator
from repro.sim.trace import TrueTraceGenerator


class Simulation:
    """One fully-wired simulation run over the paper's office floor."""

    def __init__(
        self,
        config: SimulationConfig = DEFAULT_CONFIG,
        plan: Optional[FloorPlan] = None,
        readers: Optional[Sequence[RFIDReader]] = None,
        use_cache: bool = True,
        use_pruning: bool = True,
        resampler=systematic_resample,
        build_symbolic: bool = True,
        filter_backend: BackendSpec = "particle",
    ):
        self.config = config
        if config.observability and not obs.enabled():
            obs.enable(fresh=False)
        self.plan = plan if plan is not None else paper_office_plan()
        self.graph = build_walking_graph(self.plan)
        self.anchor_index = build_anchor_index(self.graph, config.anchor_spacing)
        self.readers = (
            list(readers)
            if readers is not None
            else deploy_readers_uniform(
                self.plan, config.num_readers, config.activation_range
            )
        )

        self.trace = TrueTraceGenerator(
            self.graph, config, rng=child_rng(config.seed, "trace")
        )
        self.reading_generator = RawReadingGenerator(
            self.readers,
            detection_probability=config.detection_probability,
            samples_per_second=config.samples_per_second,
            rng=child_rng(config.seed, "readings"),
        )

        tag_to_object = self.trace.tag_to_object()
        self.pf_engine = IndoorQueryEngine(
            self.plan,
            self.readers,
            tag_to_object,
            config=config,
            graph=self.graph,
            anchor_index=self.anchor_index,
            use_cache=use_cache,
            use_pruning=use_pruning,
            resampler=resampler,
            filter_backend=filter_backend,
        )
        self.sm_engine = (
            IndoorQueryEngine(
                self.plan,
                self.readers,
                tag_to_object,
                config=config,
                graph=self.graph,
                anchor_index=self.anchor_index,
                use_pruning=use_pruning,
                filter_backend="symbolic",
                collector=self.pf_engine.collector,
            )
            if build_symbolic
            else None
        )

        self._query_rng = child_rng(config.seed, "queries")
        #: Raw readings generated by the most recent simulated second
        #: (consumed by the CLI's reading-log export).
        self.last_readings: List = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """The current simulated second."""
        return self.trace.now

    def step(self) -> List:
        """Advance the world by exactly one second and return its readings.

        One tick = move every object, generate that second's raw
        readings, and feed them to the engines' shared collector.
        ``run_until`` is just this in a loop; the online service layer
        (:mod:`repro.service`) calls it directly to source live readings
        tick by tick.
        """
        with obs.timer("sim.step"):
            self.trace.step()
            with obs.timer("sim.generate_readings"):
                readings = self.reading_generator.generate(
                    self.trace.now, self.trace.tag_positions()
                )
            with obs.timer("sim.ingest"):
                self.pf_engine.ingest_second(self.trace.now, readings)
        self.last_readings = readings
        obs.add("sim.seconds_simulated")
        return readings

    def run_until(self, second: int) -> None:
        """Advance the world (traces + readings + the shared collector)."""
        while self.trace.now < second:
            self.step()

    def run_for(self, seconds: int) -> None:
        """Advance by a relative number of seconds."""
        self.run_until(self.trace.now + seconds)

    # ------------------------------------------------------------------
    # truth accessors
    # ------------------------------------------------------------------
    def true_positions(self) -> Dict[str, Point]:
        """Current true 2-D positions by object id."""
        return self.trace.positions()

    def true_locations(self) -> Dict[str, GraphLocation]:
        """Current true graph locations by object id."""
        return self.trace.locations()

    # ------------------------------------------------------------------
    # random query placement (paper Section 5.2 / 5.3)
    # ------------------------------------------------------------------
    def random_window(self, area_ratio: Optional[float] = None) -> Rect:
        """A random square query window of the configured relative area."""
        ratio = area_ratio if area_ratio is not None else self.config.query_window_ratio
        bounds = self.plan.bounds
        side = math.sqrt(ratio * bounds.area)
        side = min(side, bounds.width, bounds.height)
        x = self._query_rng.uniform(bounds.min_x, bounds.max_x - side)
        y = self._query_rng.uniform(bounds.min_y, bounds.max_y - side)
        return Rect(x, y, x + side, y + side)

    def random_query_point(self) -> Point:
        """A random indoor location on the walking graph."""
        edges = self.graph.edges
        lengths = [e.length for e in edges]
        total = sum(lengths)
        draw = self._query_rng.uniform(0.0, total)
        consumed = 0.0
        for edge, length in zip(edges, lengths):
            consumed += length
            if draw <= consumed:
                return edge.point_at(draw - (consumed - length))
        return edges[-1].point_at(lengths[-1])

    def random_windows(self, count: int, area_ratio: Optional[float] = None) -> List[Rect]:
        """``count`` random windows."""
        return [self.random_window(area_ratio) for _ in range(count)]

    def random_query_points(self, count: int) -> List[Point]:
        """``count`` random query points."""
        return [self.random_query_point() for _ in range(count)]
