#!/usr/bin/env python3
"""Walkthrough of the inference pipeline for a single tracked object.

Reproduces the narrative of the paper's Figure 1, step by step and
without the simulator: a person walks down a hallway past readers d2 and
d3; we feed the raw readings through the event-driven collector and the
particle filter, and watch the posterior sharpen — including the
direction inference after the second reader (the paper's key example of
why particle filters beat the symbolic model).

Run:  python examples/tracking_walkthrough.py
"""


from repro import DEFAULT_CONFIG
from repro.core import (
    CompiledAnchors,
    CompiledGraph,
    ParticleFilter,
    particles_to_anchor_distribution,
)
from repro.collector import EventDrivenCollector
from repro.floorplan import small_test_plan
from repro.geometry import Point
from repro.graph import build_anchor_index, build_walking_graph
from repro.rfid import RFIDReader
from repro.rfid.readings import RawReading


def describe(distribution, anchors, graph, true_x):
    """One-line summary of an anchor distribution."""
    if not distribution:
        return "(no mass)"
    mean_x = sum(anchors.anchor(ap).point.x * p for ap, p in distribution.items())
    mode = max(distribution, key=distribution.get)
    mode_point = anchors.anchor(mode).point
    right = sum(
        p for ap, p in distribution.items() if anchors.anchor(ap).point.x > true_x - 2
    )
    return (
        f"mean x = {mean_x:5.2f}, mode = ({mode_point.x:.1f}, {mode_point.y:.1f}), "
        f"mass not behind the person: {right:.2f}"
    )


def main() -> None:
    plan = small_test_plan()
    graph = build_walking_graph(plan)
    anchors = build_anchor_index(graph, 1.0)
    readers = {
        "d1": RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
        "d2": RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
        "d3": RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
    }
    compiled = CompiledGraph(graph)
    compiled_anchors = CompiledAnchors(anchors, compiled)
    pf = ParticleFilter(compiled, readers, DEFAULT_CONFIG)
    collector = EventDrivenCollector({"tag1": "o1"})

    # The person walks right at ~1 m/s starting at x=9 (inside d2's range).
    print("true trajectory: x = 9 + t (hallway y=5), readers at x=3, 10, 17\n")
    for second in range(0, 11):
        x = 9.0 + second
        readings = [
            RawReading(second + 0.5, "tag1", r.reader_id)
            for r in readers.values()
            if r.covers(Point(x, 5.0))
        ]
        collector.ingest_second(second, readings)

        history = collector.history("o1")
        if history.is_empty:
            continue
        result = pf.run(history, current_second=second, seed=1)
        (distribution,) = particles_to_anchor_distribution(
            [result.particles], compiled_anchors
        )
        seen = history.reading_at(second) or "-- silent --"
        print(
            f"t={second:2d}  true x={x:4.1f}  reader: {seen:12s} "
            f"{describe(distribution, anchors, graph, x)}"
        )

    history = collector.history("o1")
    print(
        f"\nretained runs: {[(run.reader_id, run.seconds) for run in history.runs]}"
    )
    print(f"device generation: {collector.device_generation('o1')}")
    print(
        "\nNote how after t=8 (leaving d3) the posterior keeps moving right\n"
        "instead of spreading symmetrically — the filter inferred the walking\n"
        "direction from the d2 -> d3 reading sequence (paper Figure 1)."
    )


if __name__ == "__main__":
    main()
