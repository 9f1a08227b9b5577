#!/usr/bin/env python3
"""Room occupancy dashboard: probabilistic range queries over every room.

A facilities-management view of the paper's system: with readers only in
hallways (privacy!), estimate how many people are in each room, using the
room boundary as a range-query window. Shows the paper's core point —
noisy, hallway-only RFID readings still support room-level occupancy
estimates once cleansed by the particle filter.

Run:  python examples/room_occupancy.py
"""

from repro import DEFAULT_CONFIG, Simulation
from repro.sim import true_range_result


def main() -> None:
    # People linger in rooms for 10-30 s here (the paper's trace
    # generator never dwells; this example turns dwelling on to make
    # occupancy interesting).
    config = DEFAULT_CONFIG.with_overrides(
        num_objects=60, seed=23, min_dwell_seconds=10.0, max_dwell_seconds=30.0
    )
    sim = Simulation(config)

    print("simulating 3 minutes of an office floor with 60 people ...\n")
    sim.run_for(180)
    now = sim.now

    positions = sim.true_positions()

    # One range query per room, evaluated in a single engine round so the
    # particle filter runs once per candidate object.
    from repro.queries import RangeQuery

    engine = sim.pf_engine
    engine.clear_queries()
    rooms = sim.plan.rooms
    for room in rooms:
        engine.register_range_query(RangeQuery(room.room_id, room.boundary))
    snapshot = engine.evaluate(now)
    engine.clear_queries()

    print(f"{'room':>5} {'expected':>9} {'actual':>7}  occupancy bar")
    total_expected = 0.0
    total_actual = 0
    for room in rooms:
        result = snapshot.range_results[room.room_id]
        expected = sum(result.probabilities.values())
        actual = len(true_range_result(room.boundary, positions))
        total_expected += expected
        total_actual += actual
        bar = "#" * int(round(expected * 2))
        flag = "" if abs(expected - actual) < 1.0 else "  <- off"
        print(f"{room.room_id:>5} {expected:>9.2f} {actual:>7d}  {bar}{flag}")

    hallway_actual = len(positions) - total_actual
    print(
        f"\ntotals: expected in rooms {total_expected:.1f}, actually in rooms "
        f"{total_actual}, in hallways {hallway_actual}"
    )
    error = abs(total_expected - total_actual)
    print(f"absolute error on the room total: {error:.1f} people")


if __name__ == "__main__":
    main()
