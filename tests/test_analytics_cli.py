"""The ``repro analytics`` verbs and analytics wiring, through main()."""

import json
import urllib.error
import urllib.request

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def analytics_run(tmp_path_factory):
    """One recorded ``analytics serve`` run: event log + summary doc."""
    root = tmp_path_factory.mktemp("analytics-run")
    events = root / "events.jsonl"
    out = root / "summary.json"
    assert main(
        [
            "analytics", "serve",
            "--objects", "5",
            "--seconds", "12",
            "--seed", "3",
            "--events", str(events),
            "--out", str(out),
        ]
    ) == 0
    return {"events": events, "out": out}


class TestAnalyticsServe:
    def test_report_and_equivalence_lines(self, analytics_run, capsys):
        assert main(
            ["analytics", "serve", "--objects", "4", "--seconds", "6",
             "--seed", "9"]
        ) == 0
        out = capsys.readouterr().out
        assert "== analytics ==" in out
        assert "accuracy vs ground truth" in out
        assert "objects=4 " in out
        # The printed occupancy rows (3 decimals each) account for all
        # four objects.
        section = out.split("-- occupancy (expected ± sd) --\n")[1]
        rows = section.split("-- busiest --")[0].splitlines()
        expected = sum(float(row.split()[1]) for row in rows)
        assert expected == pytest.approx(4.0, abs=0.0005 * len(rows))

    def test_out_document_shape(self, analytics_run):
        doc = json.loads(analytics_run["out"].read_text())
        assert doc["summary"]["epochs"] == 12
        assert "__hallways__" in doc["summary"]["occupancy"]
        assert "occupancy_mae" in doc["accuracy"]

    def test_event_log_carries_analytics_sections(self, analytics_run):
        lines = analytics_run["events"].read_text().splitlines()
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == 12
        assert all("analytics" in record for record in records)
        assert all("occupancy" in record["analytics"] for record in records)


class TestAnalyticsWindowVerbs:
    def test_window_renders_table(self, analytics_run, capsys):
        assert main(
            ["analytics", "window", str(analytics_run["events"]),
             "--from", "3", "--to", "9"]
        ) == 0
        out = capsys.readouterr().out
        assert "== analytics window [3..9]" in out
        assert "__hallways__" in out

    def test_window_json_boundaries_inclusive(self, analytics_run, capsys):
        assert main(
            ["analytics", "window", str(analytics_run["events"]),
             "--from", "3", "--to", "9", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epochs"] == 7
        assert doc["first_second"] == 3
        assert doc["last_second"] == 9

    def test_empty_window_notes_no_epochs(self, analytics_run, capsys):
        assert main(
            ["analytics", "window", str(analytics_run["events"]),
             "--from", "100"]
        ) == 0
        assert "no analytics epochs" in capsys.readouterr().out

    def test_report_covers_full_log(self, analytics_run, capsys):
        assert main(
            ["analytics", "report", str(analytics_run["events"]), "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["epochs"] == 12
        assert doc["window"] == {"t0": None, "t1": None}

    def test_missing_log_exits_nonzero(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["analytics", "window", str(tmp_path / "nope.jsonl")])


class TestServeIntegration:
    def test_serve_analytics_summary_line(self, tmp_path, capsys):
        root = tmp_path
        log = root / "readings.csv"
        plan = root / "plan.json"
        deployment = root / "deployment.json"
        assert main(
            ["simulate", "--objects", "6", "--seconds", "8", "--seed", "4",
             "--readings", str(log), "--plan", str(plan),
             "--deployment", str(deployment)]
        ) == 0
        capsys.readouterr()
        assert main(
            ["serve", "--replay", str(log), "--plan", str(plan),
             "--deployment", str(deployment), "--quiet", "--analytics",
             "--events", str(root / "epochs.jsonl")]
        ) == 0
        out = capsys.readouterr().out
        assert "analytics: 8 epochs" in out
        records = [
            json.loads(line)
            for line in (root / "epochs.jsonl").read_text().splitlines()[1:]
        ]
        assert all("analytics" in record for record in records)

    def test_analytics_endpoint_serves_summary(self):
        from repro.config import DEFAULT_CONFIG
        from repro.obs.expo import MetricsServer
        from repro.service import LiveSimSource, TrackingService
        from repro.sim import Simulation

        config = DEFAULT_CONFIG.with_overrides(seed=6, num_objects=4)
        with TrackingService(config, seed=6) as service:
            engine = service.enable_analytics()
            sim = Simulation(
                config, plan=service.plan, readers=service.readers,
                build_symbolic=False,
            )
            for batch in LiveSimSource(sim, 5).batches():
                service.process_batch(batch)
            server = MetricsServer(
                snapshot_provider=lambda: {},
                analytics_provider=engine.summary,
                port=0,
            )
            port = server.start()
            try:
                with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/analytics"
                ) as response:
                    doc = json.load(response)
            finally:
                server.stop()
        assert doc["epochs"] == 5
        assert doc["top_regions"]
        assert doc == json.loads(json.dumps(engine.summary()))

    def test_analytics_endpoint_404_when_unattached(self):
        from repro.obs.expo import MetricsServer

        server = MetricsServer(snapshot_provider=lambda: {}, port=0)
        port = server.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"http://127.0.0.1:{port}/analytics")
            excinfo.value.close()
            assert excinfo.value.code == 404
        finally:
            server.stop()


class TestTopPanel:
    def test_top_once_renders_occupancy_panel(self, analytics_run, capsys):
        assert main(
            ["top", "--events", str(analytics_run["events"]),
             "--once", "--no-ansi"]
        ) == 0
        out = capsys.readouterr().out
        assert "analytics" in out
        assert "flow events=" in out

    def test_top_without_analytics_sections_has_no_panel(
        self, tmp_path, capsys
    ):
        root = tmp_path
        log = root / "readings.csv"
        plan = root / "plan.json"
        deployment = root / "deployment.json"
        assert main(
            ["simulate", "--objects", "4", "--seconds", "5", "--seed", "2",
             "--readings", str(log), "--plan", str(plan),
             "--deployment", str(deployment)]
        ) == 0
        assert main(
            ["serve", "--replay", str(log), "--plan", str(plan),
             "--deployment", str(deployment), "--quiet",
             "--events", str(root / "epochs.jsonl")]
        ) == 0
        capsys.readouterr()
        assert main(
            ["top", "--events", str(root / "epochs.jsonl"),
             "--once", "--no-ansi"]
        ) == 0
        out = capsys.readouterr().out
        assert "flow events=" not in out


class TestPromBuildInfoFix:
    def test_offline_prom_reports_producing_build(self, tmp_path, capsys):
        """`repro stats --prom` renders the build that wrote the trace."""
        trace = tmp_path / "trace.json"
        assert main(
            ["simulate", "--objects", "4", "--seconds", "5", "--seed", "2",
             "--trace", str(trace)]
        ) == 0
        doc = json.loads(trace.read_text())
        assert "build" in doc, "trace snapshots must embed build info"
        # Forge a foreign build to prove --prom prefers the embedded one.
        doc["build"] = {"version": "0.0.0-recorded", "python": "3.0.0"}
        trace.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["stats", str(trace), "--prom"]) == 0
        out = capsys.readouterr().out
        assert 'version="0.0.0-recorded"' in out
        assert "repro_build_info" in out
