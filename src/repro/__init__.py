"""repro — RFID and particle filter-based indoor spatial query evaluation.

A complete Python reproduction of Yu, Ku, Sun, and Lu, *"An RFID and
Particle Filter-Based Indoor Spatial Query Evaluation System"* (EDBT
2013): the particle filter-based location inference method, the indoor
walking graph and anchor point models, indoor range and kNN query
algorithms, the symbolic model baseline, and the full simulation framework
used for the paper's evaluation.

Quickstart::

    from repro import Simulation, DEFAULT_CONFIG

    sim = Simulation(DEFAULT_CONFIG.with_overrides(num_objects=50))
    sim.run_for(120)                               # simulate two minutes
    result = sim.pf_engine.range_query(            # who is in this room?
        sim.plan.room("R5").boundary, sim.now, rng=sim.pf_rng
    )
    print(result.top(5))
"""

import repro.obs as obs
from repro.config import DEFAULT_CONFIG, SimulationConfig
from repro.floorplan import (
    FloorPlan,
    FloorPlanBuilder,
    paper_office_plan,
    small_test_plan,
)
from repro.geometry import Circle, Point, Polyline, Rect, Segment
from repro.graph import (
    AnchorIndex,
    AnchorPoint,
    GraphLocation,
    WalkingGraph,
    build_anchor_index,
    build_walking_graph,
)
from repro.index import AnchorObjectTable
from repro.queries import (
    IndoorQueryEngine,
    KNNQuery,
    KNNResult,
    RangeQuery,
    RangeResult,
)
from repro.rfid import DetectionModel, RFIDReader, RFIDTag, deploy_readers_uniform
from repro.sim import Simulation, evaluate_accuracy

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_CONFIG",
    "SimulationConfig",
    "FloorPlan",
    "FloorPlanBuilder",
    "paper_office_plan",
    "small_test_plan",
    "Point",
    "Rect",
    "Circle",
    "Segment",
    "Polyline",
    "GraphLocation",
    "WalkingGraph",
    "AnchorIndex",
    "AnchorPoint",
    "build_walking_graph",
    "build_anchor_index",
    "AnchorObjectTable",
    "RangeQuery",
    "KNNQuery",
    "RangeResult",
    "KNNResult",
    "IndoorQueryEngine",
    "RFIDReader",
    "RFIDTag",
    "DetectionModel",
    "deploy_readers_uniform",
    "Simulation",
    "evaluate_accuracy",
    "obs",
    "__version__",
]
