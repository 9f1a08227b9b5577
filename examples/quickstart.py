#!/usr/bin/env python3
"""Quickstart: track objects and ask indoor spatial queries.

Builds the paper's office floor (30 rooms, 4 hallways, 19 RFID readers),
simulates a small crowd walking around for two minutes, then answers one
range query and one kNN query with the particle filter-based engine and
compares the answers to the ground truth.

Run:  python examples/quickstart.py
"""

from repro import DEFAULT_CONFIG, Simulation
from repro.geometry import Point, Rect
from repro.sim import true_knn_result, true_range_result


def main() -> None:
    config = DEFAULT_CONFIG.with_overrides(num_objects=30, seed=42)
    sim = Simulation(config)

    print(f"floor plan: {sim.plan}")
    print(f"walking graph: {sim.graph}")
    print(f"anchor points: {len(sim.anchor_index)}")
    print(f"readers: {len(sim.readers)} (activation range "
          f"{config.activation_range} m)\n")

    print("simulating 120 seconds of movement and RFID readings ...")
    sim.run_for(120)
    now = sim.now

    # --- range query: who is in the lower-left quadrant of the building?
    window = Rect(4, 0, 30, 12)
    result = sim.pf_engine.range_query(window, now)
    truth = true_range_result(window, sim.true_positions())

    print(f"\nRange query {window}:")
    print(f"  ground truth ({len(truth)} objects): {sorted(truth)}")
    print("  particle filter answer (top 8 by probability):")
    for object_id, probability in result.top(8):
        marker = "*" if object_id in truth else " "
        print(f"   {marker} {object_id}: {probability:.3f}")

    # --- kNN query: the 3 objects nearest to the middle of the bottom hallway.
    query_point = Point(32, 5)
    knn = sim.pf_engine.knn_query(query_point, 3, now)
    knn_truth = true_knn_result(query_point, sim.true_locations(), sim.graph, 3)

    print(f"\n3NN query at {query_point}:")
    print(f"  ground truth: {knn_truth}")
    print(f"  particle filter answer (sum of probabilities "
          f"{knn.total_probability:.2f}):")
    for object_id, probability in knn.ranked()[:6]:
        marker = "*" if object_id in knn_truth else " "
        print(f"   {marker} {object_id}: {probability:.3f}")

    hits = len(set(knn.objects()) & set(knn_truth))
    print(f"\nkNN hit rate: {hits}/{len(knn_truth)}")


if __name__ == "__main__":
    main()
