"""Every ``repro experiment`` subject at ``--scale quick``: the shape checks.

Each subject runs once per module through the CLI, and the assertions
are the qualitative shapes of the paper's Section 5 figures and of the
ablations: the particle filter beats the symbolic model where the paper
says it does, more particles and longer reader ranges do not hurt, and
each optional module (cache, pruning) does what it is there for.
"""

import json

import pytest

from repro.cli import main
from repro.core.resampling import RESAMPLERS
from repro.sim.experiments import (
    DEFAULT_COMPARISON_BACKENDS,
    DOOR_BIASES,
    DWELL_WINDOWS,
    SCALES,
    SUBJECTS,
)

QUICK_SWEEPS = SCALES["quick"].sweeps

ROW_COUNTS = {
    **{name: len(values) for name, values in QUICK_SWEEPS.items()},
    "backends": len(DEFAULT_COMPARISON_BACKENDS),
    "cache": 2,
    "pruning": 2,
    "resampling": len(RESAMPLERS),
    "door-bias": len(DOOR_BIASES),
    "dwell": len(DWELL_WINDOWS),
    "negative-info": 2,
}


@pytest.fixture(scope="module")
def rows_of(tmp_path_factory):
    """``rows_of(subject)``: the subject's quick-scale JSON rows, run once."""
    cache = {}

    def run(subject):
        if subject not in cache:
            out = tmp_path_factory.mktemp(subject) / "rows.json"
            code = main(
                ["experiment", subject, "--scale", "quick", "--out-json", str(out)]
            )
            assert code == 0
            cache[subject] = json.loads(out.read_text())
        return cache[subject]

    return run


def _mean(rows, column):
    return sum(row[column] for row in rows) / len(rows)


@pytest.mark.parametrize("subject", list(SUBJECTS))
def test_row_count_and_top2_dominates_top1(rows_of, subject):
    rows = rows_of(subject)
    assert len(rows) == ROW_COUNTS[subject]
    for row in rows:
        if row.get("top1_success") is not None:
            assert row["top2_success"] >= row["top1_success"]


def test_fig9_pf_below_sm_on_average(rows_of):
    rows = rows_of("fig9")
    assert _mean(rows, "range_kl_pf") < _mean(rows, "range_kl_sm")


def test_fig10_pf_hit_rate_above_sm_on_average(rows_of):
    rows = rows_of("fig10")
    assert _mean(rows, "knn_hit_pf") > _mean(rows, "knn_hit_sm")


def test_fig11_more_particles_no_worse_and_beat_sm(rows_of):
    by_count = {row["num_particles"]: row for row in rows_of("fig11")}
    large = max(QUICK_SWEEPS["fig11"])
    small = min(QUICK_SWEEPS["fig11"])
    assert by_count[large]["range_kl_pf"] <= by_count[small]["range_kl_pf"]
    assert by_count[large]["range_kl_pf"] < by_count[large]["range_kl_sm"]


def test_fig12_pf_beats_sm_in_every_row(rows_of):
    for row in rows_of("fig12"):
        assert row["range_kl_pf"] < row["range_kl_sm"]
        assert row["knn_hit_pf"] > row["knn_hit_sm"]


def test_fig13_longer_range_no_worse_and_pf_beats_sm(rows_of):
    by_range = {row["activation_range"]: row for row in rows_of("fig13")}
    assert by_range[2.5]["range_kl_pf"] <= by_range[0.5]["range_kl_pf"]
    assert by_range[2.0]["range_kl_pf"] < by_range[2.0]["range_kl_sm"]


def test_backends_particle_beats_symbolic_with_throughput(rows_of):
    rows = {row["backend"]: row for row in rows_of("backends")}
    for row in rows.values():
        assert row["filter_runs_per_s"] > 0
    assert rows["particle"]["range_kl_pf"] <= rows["symbolic"]["range_kl_pf"]


def test_cache_hits_and_is_not_slower(rows_of):
    enabled, disabled = rows_of("cache")
    assert enabled["hits"] > 0
    assert enabled["filter_seconds"] <= disabled["filter_seconds"] * 1.1


def test_pruning_keeps_a_subset(rows_of):
    pruned, full = rows_of("pruning")
    assert pruned["candidates_filtered"] <= full["candidates_filtered"]


def test_every_resampler_works_and_stays_near_sm(rows_of):
    rows = rows_of("resampling")
    assert [row["resampler"] for row in rows] == list(RESAMPLERS)
    for row in rows:
        assert row["range_kl_pf"] < row["range_kl_sm"] * 1.2


@pytest.mark.parametrize("subject", ["door-bias", "negative-info"])
def test_accuracy_ablations_measure_range_kl(rows_of, subject):
    for row in rows_of(subject):
        assert row["range_kl_pf"] is not None


def test_dwell_pf_keeps_its_edge_on_average(rows_of):
    rows = rows_of("dwell")
    assert _mean(rows, "range_kl_pf") < _mean(rows, "range_kl_sm")
