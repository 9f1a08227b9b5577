"""The paired accuracy gate (``repro experiment gate``)."""

from pathlib import Path

import pytest

from repro.bench.gate import Check, GateError, gate_points, run_gate, smoke_note
from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parents[1]

class TestCheck:
    def test_range_kl_fails_when_it_rises_past_the_spread(self):
        assert not Check("fig11", "range_kl", 1.0, 1.2, 0.1).passed
        assert Check("fig11", "range_kl", 1.0, 1.05, 0.1).passed
        assert Check("fig11", "range_kl", 1.0, 0.5, 0.1).passed  # better

    def test_knn_hit_fails_when_it_falls_past_the_spread(self):
        assert not Check("fig11", "knn_hit", 0.9, 0.7, 0.1).passed
        assert Check("fig11", "knn_hit", 0.9, 0.85, 0.1).passed
        assert Check("fig11", "knn_hit", 0.5, 0.9, 0.0).passed  # better

    def test_a_move_of_exactly_the_spread_passes(self):
        assert Check("fig11", "knn_hit", 0.9, 0.8, 0.1).worse_by == pytest.approx(0.1)
        assert Check("fig11", "range_kl", 1.0, 1.0, 0.0).passed


def test_error_correlation_fails_when_it_rises_past_the_spread():
    # A stream biased alike for every object correlates their errors.
    assert not Check("fig11", "error_corr", 0.05, 0.4, 0.1).passed
    assert Check("fig11", "error_corr", 0.05, 0.1, 0.1).passed
    assert Check("fig11", "error_corr", 0.05, -0.2, 0.0).passed  # less correlated


def test_points_are_fig11_at_the_base_and_the_second_fig12_count():
    assert gate_points("standard", 64) == [
        ("fig11", {"num_particles": 64}),
        ("fig12@400", {"num_particles": 64, "num_objects": 400}),
    ]
    assert gate_points("quick", 8)[1] == ("fig12@80", {"num_particles": 8, "num_objects": 80})


def test_the_tree_against_itself_passes():
    rows, checks = run_gate(REPO, REPO, scale="quick", seeds=2)
    assert len(rows) == 4 and len(checks) == 6
    for row in rows:
        assert row["parent_range_kl"] == row["change_range_kl"]
        assert row["parent_knn_hit"] == row["change_knn_hit"]
        assert row["parent_error_corr"] == row["change_error_corr"]
        assert -1.0 <= row["change_error_corr"] <= 1.0
    assert all(check.passed and check.worse_by == 0.0 for check in checks)


def test_a_tree_without_src_is_refused(tmp_path):
    with pytest.raises(GateError, match="no src/repro package"):
        run_gate(tmp_path, REPO, scale="quick", seeds=1)


def test_cli_takes_gate_as_an_experiment_subject():
    args = build_parser().parse_args(
        ["experiment", "gate", "--parent", ".", "--seeds", "3", "--particles", "8"]
    )
    assert (args.figure, args.parent, args.seeds, args.particles) == ("gate", ".", 3, 8)


def test_a_verdict_below_ten_standard_seeds_says_it_is_a_smoke_check():
    assert smoke_note(10, "standard") is None
    assert smoke_note(12, "standard") is None
    for seeds, scale in ((9, "standard"), (10, "quick"), (10, "paper"), (3, "quick")):
        note = smoke_note(seeds, scale)
        assert note.startswith("gate: smoke check only")
        assert "10 or more seeds at standard scale" in note


@pytest.mark.parametrize("seeds, scale, smoke", [("3", "quick", True), ("10", "standard", False)])
def test_cli_prints_the_smoke_line_and_keeps_the_exit_code(
    monkeypatch, capsys, seeds, scale, smoke
):
    import repro.bench.gate as gate

    checks = [Check("fig11", "knn_hit", 0.9, 0.9, 0.0)]
    monkeypatch.setattr(gate, "run_gate", lambda *args, **kwargs: ([], checks))
    status = main(
        ["experiment", "gate", "--parent", ".", "--seeds", seeds, "--scale", scale]
    )
    lines = capsys.readouterr().out.splitlines()
    assert status == 0
    assert lines[-1 - smoke] == "gate: PASS (1/1 checks)"
    assert lines[-1].startswith("gate: smoke check only") is smoke


def test_gate_resolves_to_standard_scale_by_default(monkeypatch, capsys):
    import repro.bench.gate as gate

    seen = {}
    checks = [Check("fig11", "knn_hit", 0.9, 0.9, 0.0)]

    def stub(*args, **kwargs):
        seen.update(kwargs)
        return [], checks

    monkeypatch.setattr(gate, "run_gate", stub)
    assert main(["experiment", "gate", "--parent", "."]) == 0
    out = capsys.readouterr().out
    assert seen["scale"] == "standard"
    assert "scale standard, seeds 1..10" in out
    assert "smoke check only" not in out
    assert out.splitlines()[-1] == "gate: PASS (1/1 checks)"
