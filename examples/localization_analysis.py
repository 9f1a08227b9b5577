#!/usr/bin/env python3
"""Localization error analysis: why the particle filter wins.

Runs both inference methods on the same simulated world and breaks
localization error down by *staleness* (seconds since the object's last
RFID detection). The particle filter's direction/speed dead-reckoning
keeps the error low through silent stretches; the symbolic model's
uniform spreading does not. Finishes with an ASCII heat map of one
object's inferred distribution against its true position.

Run:  python examples/localization_analysis.py
"""

from repro import DEFAULT_CONFIG, Simulation
from repro.sim import (
    by_staleness_bucket,
    hallway_coverage_fraction,
    localization_samples,
    tracking_statistics,
)
from repro.viz import render_distribution


def main() -> None:
    config = DEFAULT_CONFIG.with_overrides(num_objects=40, seed=17)
    sim = Simulation(config)

    coverage = hallway_coverage_fraction(sim.plan, sim.readers)
    print(
        f"deployment: {len(sim.readers)} readers, activation range "
        f"{config.activation_range} m, hallway coverage {coverage:.0%}\n"
    )

    pf_samples = []
    sm_samples = []
    for timestamp in (80, 120, 160, 200):
        sim.run_until(timestamp)
        truth = sim.true_positions()
        staleness = dict(
            zip(
                sim.pf_engine.collector.observed_objects(),
                [
                    timestamp - sim.pf_engine.collector.last_detection(o)[1]
                    for o in sim.pf_engine.collector.observed_objects()
                ],
            )
        )
        pf_table = sim.pf_engine.locations_snapshot(timestamp)
        sm_table = sim.sm_engine.locations_snapshot(timestamp)
        pf_samples += localization_samples(
            pf_table, sim.anchor_index, truth, staleness, timestamp
        )
        sm_samples += localization_samples(
            sm_table, sim.anchor_index, truth, staleness, timestamp
        )

    stats = tracking_statistics(
        sim.pf_engine.collector, sim.now, config.num_objects
    )
    print(
        f"tracking state at t={sim.now}: {stats.observed_objects}/"
        f"{stats.num_objects} observed, {stats.detected_fraction:.0%} "
        f"currently in range, median staleness "
        f"{stats.median_staleness:.0f} s\n"
    )

    print("mean localization error (m) by staleness, PF vs SM:")
    print(f"{'staleness':>10} {'n':>5} {'PF mode':>8} {'SM mode':>8} "
          f"{'PF E[err]':>10} {'SM E[err]':>10}")
    pf_buckets = by_staleness_bucket(pf_samples)
    sm_buckets = by_staleness_bucket(sm_samples)
    for bucket in pf_buckets:
        pf = pf_buckets[bucket]
        sm = sm_buckets[bucket]
        if pf is None or sm is None:
            continue
        print(
            f"{bucket:>10} {pf.count:>5} {pf.mean_mode_error:>8.2f} "
            f"{sm.mean_mode_error:>8.2f} {pf.mean_expected_error:>10.2f} "
            f"{sm.mean_expected_error:>10.2f}"
        )

    # Heat map of the most-silent object's PF distribution.
    table = sim.pf_engine.locations_snapshot(sim.now)
    objects = table.objects()
    chosen = max(
        objects,
        key=lambda o: sim.now - sim.pf_engine.collector.last_detection(o)[1],
    )
    truth = sim.true_positions()[chosen]
    silent_for = sim.now - sim.pf_engine.collector.last_detection(chosen)[1]
    print(
        f"\nparticle filter distribution of {chosen} "
        f"(silent for {silent_for} s; X marks the true position):\n"
    )
    print(
        render_distribution(
            sim.plan,
            sim.anchor_index,
            table.distribution_of(chosen),
            true_position=truth,
            columns=88,
        )
    )


if __name__ == "__main__":
    main()
