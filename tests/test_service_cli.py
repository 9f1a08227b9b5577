"""The ``repro serve`` subcommand, end to end through main()."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A recorded world: plan, deployment, and a 20-second reading log."""
    root = tmp_path_factory.mktemp("serve-world")
    log = root / "readings.csv"
    plan = root / "plan.json"
    deployment = root / "deployment.json"
    assert main(
        [
            "simulate",
            "--objects", "8",
            "--seconds", "20",
            "--seed", "5",
            "--readings", str(log),
            "--plan", str(plan),
            "--deployment", str(deployment),
        ]
    ) == 0
    return {"log": log, "plan": plan, "deployment": deployment}


def _serve(world, *extra):
    return main(
        [
            "serve",
            "--replay", str(world["log"]),
            "--plan", str(world["plan"]),
            "--deployment", str(world["deployment"]),
            *extra,
        ]
    )


class TestServeReplay:
    def test_replay_with_standing_queries(self, world, capsys):
        code = _serve(world, "--range", "4,0,30,12", "--knn", "30,5,3")
        assert code == 0
        out = capsys.readouterr().out
        assert "standing query range-0" in out
        assert "standing query knn-0" in out
        assert "served 20 ticks" in out
        assert "[t=" in out  # at least one delta printed

    def test_quiet_suppresses_deltas(self, world, capsys):
        code = _serve(world, "--range", "4,0,30,12", "--quiet", "--seconds", "5")
        assert code == 0
        out = capsys.readouterr().out
        assert "[t=" not in out
        assert "served 5 ticks" in out

    def test_bad_range_spec(self, world):
        with pytest.raises(SystemExit):
            _serve(world, "--range", "1,2,3")

    def test_trace_output(self, world, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        code = _serve(
            world, "--range", "4,0,30,12", "--quiet",
            "--seconds", "5", "--trace", str(trace),
        )
        assert code == 0
        data = json.loads(trace.read_text())
        assert data["meta"]["command"] == "serve"
        histograms = {h["name"]: h for h in data["metrics"]["histograms"]}
        assert "service.tick_latency" in histograms
        # Elapsed seconds: a timer series, which `repro profile` lists as time.
        assert histograms["service.tick_latency"]["timer"] is True
        assert "service.filter_tick" in histograms
        counters = {c["name"] for c in data["metrics"]["counters"]}
        assert "service.ticks" in counters


class TestServeCheckpoint:
    def test_checkpoint_restore_round_trip(self, world, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        # Uninterrupted run for reference.
        _serve(world, "--range", "4,0,30,12")
        reference = [
            l for l in capsys.readouterr().out.splitlines() if l.startswith("[t=")
        ]
        # First half, checkpointing every 5 ticks.
        code = _serve(
            world, "--range", "4,0,30,12", "--seconds", "10",
            "--checkpoint", str(ckpt), "--checkpoint-interval", "5",
        )
        assert code == 0
        first_half = capsys.readouterr().out
        assert f"checkpoint -> {ckpt}" in first_half
        state = json.loads(ckpt.read_text())
        assert state["format"] == "repro-service-checkpoint"
        # Restore and resume over the same log.
        code = _serve(world, "--restore", str(ckpt))
        assert code == 0
        resumed = capsys.readouterr().out
        assert "restored from" in resumed
        assert "served 10 ticks" in resumed
        resumed_deltas = [
            l for l in resumed.splitlines() if l.startswith("[t=")
        ]
        # The resumed ticks reproduce the uninterrupted run exactly.
        tail = [
            l for l in reference
            if int(l.split("]")[0].split("=")[1]) > 10
        ]
        assert resumed_deltas == tail

    def test_live_mode(self, capsys):
        code = main(
            ["serve", "--live", "--objects", "5", "--seconds", "6",
             "--range", "4,0,30,12", "--quiet"]
        )
        assert code == 0
        assert "served 6 ticks" in capsys.readouterr().out


class TestServeFilterBackends:
    def test_symbolic_backend_serves(self, world, capsys):
        code = _serve(
            world, "--filter", "symbolic", "--range", "4,0,30,12",
            "--quiet", "--seconds", "6",
        )
        assert code == 0
        assert "served 6 ticks" in capsys.readouterr().out

    def test_restore_refuses_mismatched_filter(self, world, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        code = _serve(
            world, "--seconds", "5", "--quiet", "--checkpoint", str(ckpt)
        )
        assert code == 0
        capsys.readouterr()
        code = _serve(
            world, "--restore", str(ckpt), "--filter", "symbolic", "--quiet"
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "produced by filter backend 'particle'" in captured.err
        assert "--filter particle" in captured.err

    def test_restore_adopts_checkpoint_backend(self, world, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        code = _serve(
            world, "--filter", "symbolic", "--seconds", "5", "--quiet",
            "--checkpoint", str(ckpt),
        )
        assert code == 0
        capsys.readouterr()
        code = _serve(world, "--restore", str(ckpt), "--quiet")
        assert code == 0
        out = capsys.readouterr().out
        assert "filter symbolic" in out

    def test_restore_refuses_removed_backend(self, world, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        code = _serve(
            world, "--seconds", "5", "--quiet", "--checkpoint", str(ckpt)
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(ckpt.read_text())
        document["state"]["filter"]["backend"] = "kalman"
        ckpt.write_text(json.dumps(document))
        code = _serve(world, "--restore", str(ckpt), "--quiet")
        assert code == 2
        captured = capsys.readouterr()
        assert "produced by filter backend 'kalman'" in captured.err
        assert "re-create the checkpoint" in captured.err
