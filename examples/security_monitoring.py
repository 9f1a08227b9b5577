#!/usr/bin/env python3
"""Security desk: continuous monitoring plus closest-pair analysis.

Demonstrates the future-work extensions (paper Section 6) implemented in
this reproduction:

* a *continuous range query* watches a restricted zone and streams
  enter/leave deltas as people move;
* a *closest-pairs query* reports which two people are (expectedly)
  nearest to each other on the walking graph — e.g. for contact tracing.

Run:  python examples/security_monitoring.py
"""

from repro import DEFAULT_CONFIG, Simulation
from repro.geometry import Rect
from repro.queries import ContinuousQueryMonitor, evaluate_closest_pairs


def main() -> None:
    config = DEFAULT_CONFIG.with_overrides(num_objects=25, seed=5)
    sim = Simulation(config)
    sim.run_for(config.warmup_seconds)

    # Restricted zone: the top-right corner of the building.
    zone = Rect(44, 22, 60, 32)
    monitor = ContinuousQueryMonitor(
        sim.pf_engine, report_threshold=0.25, min_change=0.25
    )
    monitor.add_range_query("restricted-zone", zone)

    print(f"monitoring restricted zone {zone} every 10 s\n")
    for _ in range(8):
        sim.run_for(10)
        (delta,) = monitor.tick(sim.now)
        events = []
        events += [f"+{obj} (p={p:.2f})" for obj, p in sorted(delta.entered.items())]
        events += [f"-{obj}" for obj in delta.left]
        events += [f"~{obj} (p={p:.2f})" for obj, p in sorted(delta.updated.items())]
        line = ", ".join(events) if events else "(no change)"
        inside = sorted(monitor.current_result("restricted-zone"))
        print(f"t={sim.now:3d}  {line}")
        print(f"        currently inside: {inside if inside else '(nobody)'}")

    # Closest pair right now, from the filtered location distributions.
    table = sim.pf_engine.locations_snapshot(sim.now)
    pairs = evaluate_closest_pairs(
        sim.graph, sim.anchor_index, table, m=3
    )
    print("\nclosest pairs (expected walking distance):")
    for pair in pairs:
        print(
            f"  {pair.object_a} <-> {pair.object_b}: "
            f"{pair.expected_distance:.2f} m"
        )

    # Cross-check the top pair against the true positions.
    locations = sim.true_locations()
    top = pairs[0]
    true_distance = sim.graph.distance(
        locations[top.object_a], locations[top.object_b]
    )
    print(
        f"\ntrue walking distance of the top pair: {true_distance:.2f} m"
    )

    # Event query: are the top pair meeting inside the restricted zone?
    from repro.queries import EventContext, InZone, Near

    context = EventContext(sim.plan, sim.graph, sim.anchor_index, table)
    meeting = (
        InZone(top.object_a, zone)
        & InZone(top.object_b, zone)
        & Near(top.object_a, top.object_b, 3.0)
    )
    print(
        f"P({top.object_a} meeting {top.object_b} inside the restricted "
        f"zone) = {meeting.probability(context):.3f}"
    )


if __name__ == "__main__":
    main()
