"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_experiment_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_filter_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--filter", "bogus"])
        args = build_parser().parse_args(["simulate", "--filter", "symbolic"])
        assert args.filter_backend == "symbolic"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--filter", "kalman"])

    def test_serve_filter_defaults_to_none(self):
        args = build_parser().parse_args(["serve", "--live"])
        assert args.filter_backend is None


class TestSimulate:
    def test_exports_world_and_log(self, tmp_path, capsys):
        readings = tmp_path / "readings.csv"
        plan = tmp_path / "plan.json"
        deployment = tmp_path / "deployment.json"
        code = main(
            [
                "simulate",
                "--objects", "8",
                "--seconds", "20",
                "--seed", "5",
                "--readings", str(readings),
                "--plan", str(plan),
                "--deployment", str(deployment),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated 20 s" in out
        assert readings.exists()
        assert json.loads(plan.read_text())["format"] == "repro-floorplan"
        assert json.loads(deployment.read_text())["format"] == "repro-deployment"

    def test_render_flag(self, capsys):
        code = main(["simulate", "--objects", "5", "--seconds", "5", "--render"])
        assert code == 0
        out = capsys.readouterr().out
        assert ":" in out  # hallway cells in the rendering


class TestRender:
    def test_default_plan(self, capsys):
        assert main(["render", "--columns", "60"]) == 0
        out = capsys.readouterr().out
        assert ":" in out
        assert "." in out

    def test_roundtrip_through_files(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        deployment = tmp_path / "deployment.json"
        main(
            [
                "simulate", "--objects", "3", "--seconds", "3",
                "--plan", str(plan), "--deployment", str(deployment),
            ]
        )
        capsys.readouterr()
        assert main(
            ["render", "--plan", str(plan), "--deployment", str(deployment)]
        ) == 0
        assert "R" in capsys.readouterr().out


class TestExperiment:
    def test_fig9_small(self, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        out_json = tmp_path / "rows.json"
        code = main(
            [
                "experiment", "fig9",
                "--objects", "10",
                "--seconds", "40",
                "--seed", "2",
                "--out-csv", str(out_csv),
                "--out-json", str(out_json),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "range_kl_pf" in printed
        assert out_csv.read_text().startswith("window_ratio")
        rows = json.loads(out_json.read_text())
        assert len(rows) == 5

    def test_backend_comparison(self, tmp_path, capsys):
        out_json = tmp_path / "rows.json"
        code = main(
            [
                "experiment", "backends",
                "--objects", "6",
                "--seconds", "20",
                "--seed", "2",
                "--out-json", str(out_json),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "backend" in printed
        rows = json.loads(out_json.read_text())
        assert [row["backend"] for row in rows] == ["particle", "symbolic"]
        assert all(row["elapsed_s"] >= 0 for row in rows)
        assert all(row["filter_runs_per_s"] > 0 for row in rows)
        assert all(row["snapshot_seconds"] >= 0 for row in rows)

    def test_scale_choices(self):
        parser = build_parser()
        assert parser.parse_args(["experiment", "fig9"]).scale == "paper"
        assert parser.parse_args(["experiment", "dwell", "--scale", "quick"]).scale == "quick"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig9", "--scale", "huge"])

    @pytest.mark.parametrize(
        "flag,value", [("--objects", "0"), ("--seconds", "-5"), ("--seconds", "0")]
    )
    def test_counts_below_one_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["experiment", "fig9", flag, value])
        assert excinfo.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
    def test_missing_output_directory_fails_before_the_sweep(
        self, flag, tmp_path, monkeypatch
    ):
        def sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr("repro.cli.run_subject", sweep)
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "fig9", flag, str(tmp_path / "missing" / "rows")])
        assert f"{flag} directory does not exist" in str(excinfo.value)


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "range query" in out
        assert "3NN" in out


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestTraceAndStats:
    def test_simulate_trace_then_stats(self, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "trace.json"
        code = main(
            [
                "simulate",
                "--objects", "8",
                "--seconds", "25",
                "--seed", "5",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        assert not obs.enabled()  # the CLI turns recording back off
        out = capsys.readouterr().out
        assert f"trace -> {trace}" in out

        data = json.loads(trace.read_text())
        assert data["format"] == "repro-trace"
        counter_names = {c["name"] for c in data["metrics"]["counters"]}
        histogram_names = {h["name"] for h in data["metrics"]["histograms"]}
        # Acceptance: filter phases, pruning counters, collector throughput.
        assert {"filter.predict", "filter.weight"} <= histogram_names
        assert "prune.objects_seen" in counter_names
        assert "collector.raw_readings" in counter_names

        out_csv = tmp_path / "rows.csv"
        assert main(["stats", str(trace), "--out-csv", str(out_csv)]) == 0
        printed = capsys.readouterr().out
        assert "counters" in printed
        assert "prune.objects_seen" in printed
        assert out_csv.read_text().startswith("kind,name,value")

    def test_experiment_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = main(
            [
                "experiment", "fig9",
                "--objects", "8",
                "--seconds", "25",
                "--seed", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        data = json.loads(trace.read_text())
        assert data["meta"]["figure"] == "fig9"
        histogram_names = {h["name"] for h in data["metrics"]["histograms"]}
        assert "experiment.pf_evaluate" in histogram_names

    def test_stats_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_trace.json"
        path.write_text('{"rows": []}')
        with pytest.raises(ValueError):
            main(["stats", str(path)])
