#!/usr/bin/env python3
"""Friend finder: continuous kNN over a moving crowd.

The paper's motivating application (Section 1): "users will have more and
more demand for launching spatial queries for finding friends or Points
Of Interest in indoor places." This example tracks one user ("you")
walking through the building and repeatedly asks: *who are the 3 people
nearest to me right now?* — comparing the particle filter engine against
the symbolic model baseline and ground truth at every step.

Run:  python examples/friend_finder.py
"""

from repro import DEFAULT_CONFIG, Simulation
from repro.sim import knn_hit_rate, true_knn_result

K = 3
QUERY_EVERY = 15  # seconds
ROUNDS = 8


def main() -> None:
    config = DEFAULT_CONFIG.with_overrides(num_objects=40, seed=11)
    sim = Simulation(config)
    sim.run_for(config.warmup_seconds)

    # "You" are object o1; everyone else is a potential friend.
    you = sim.trace.objects[0]
    print(f"tracking {you.object_id}; asking {K}NN every {QUERY_EVERY} s\n")
    print(f"{'t':>4}  {'your true position':>22}  "
          f"{'PF answer':<22} {'hit rate PF':>11} {'hit rate SM':>11}")

    pf_rates = []
    sm_rates = []
    for _ in range(ROUNDS):
        sim.run_for(QUERY_EVERY)
        now = sim.now
        your_position = sim.graph.point_of(you.location)

        others = {
            obj: loc for obj, loc in sim.true_locations().items()
            if obj != you.object_id
        }
        truth = true_knn_result(your_position, others, sim.graph, K)

        pf = sim.pf_engine.knn_query(your_position, K, now)
        sm = sim.sm_engine.knn_query(your_position, K, now)
        pf_returned = [o for o in pf.objects() if o != you.object_id]
        sm_returned = [o for o in sm.top(K + 1) if o != you.object_id][:K]

        pf_rate = knn_hit_rate(pf_returned, truth)
        sm_rate = knn_hit_rate(sm_returned, truth)
        pf_rates.append(pf_rate)
        sm_rates.append(sm_rate)

        top = ", ".join(o for o, _ in pf.ranked() if o != you.object_id)[:28]
        print(
            f"{now:>4}  ({your_position.x:7.2f}, {your_position.y:6.2f})"
            f"        {top:<22} {pf_rate:>11.2f} {sm_rate:>11.2f}"
        )

    print(
        f"\naverage hit rate over {ROUNDS} rounds: "
        f"PF {sum(pf_rates) / len(pf_rates):.2f}  "
        f"SM {sum(sm_rates) / len(sm_rates):.2f}"
    )


if __name__ == "__main__":
    main()
