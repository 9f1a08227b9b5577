"""The `repro top` dashboard (repro.obs.dashboard): render, sources, loop."""

import json

import pytest

from repro import obs
from repro.obs.alerts import ALERTS_FORMAT, ALERTS_VERSION
from repro.obs.dashboard import (
    ANSI_CLEAR,
    SPARK_BLOCKS,
    EventLogTopSource,
    HttpTopSource,
    TopLoop,
    TopState,
    bar,
    render_top,
    sparkline,
)
from repro.obs.events import EVENTS_FORMAT, EVENTS_VERSION, EpochEventWriter
from repro.obs.expo import MetricsServer


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


def _record(tick, *, ess=40.0, wall=0.01, phases=None, alerts_firing=False):
    return {
        "tick": tick,
        "second": tick,
        "wall_seconds": wall,
        "phases": phases or {
            "filter.predict": 0.004,
            "filter.weight": 0.002,
            "service.filter_tick": 0.007,
        },
        "queue": {"depth": 2, "backpressure_waits": 0},
        "cache": {"hits": 5, "misses": 1, "hit_ratio": 5 / 6},
        "accuracy": {"ess_mean": ess},
    }


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_sparkline_spans_block_range(self):
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == SPARK_BLOCKS[0]
        assert line[-1] == SPARK_BLOCKS[-1]
        assert len(line) == 4

    def test_sparkline_flat_series_uses_lowest_block(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_BLOCKS[0] * 3

    def test_sparkline_skips_nones_and_respects_width(self):
        assert sparkline([None, None]) == ""
        assert len(sparkline(list(range(100)), width=10)) == 10

    def test_bar_clamps_and_fills(self):
        assert bar(0.0, width=4) == "...."
        assert bar(1.0, width=4) == "####"
        assert bar(2.5, width=4) == "####"
        assert bar(0.5, width=4) == "##.."

    def test_topstate_series_extraction(self):
        state = TopState(records=[_record(1, ess=10.0), _record(2, ess=None)])
        assert state.accuracy_series("ess_mean") == [10.0, None]
        assert state.wall_series() == [0.01, 0.01]
        assert state.last_record["tick"] == 2


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
class TestRenderTop:
    def test_sections_present(self):
        state = TopState(
            health={"status": "ok", "ticks": 9, "last_second": 8,
                    "filter_backend": "particle", "queue_depth": 2,
                    "queue_capacity": 64},
            records=[_record(t) for t in range(1, 6)],
            alerts={"rules": []},
        )
        text = render_top(state)
        assert "status=ok" in text
        assert "epoch wall" in text and "ticks/s" in text
        assert "phase seconds (last epoch)" in text
        assert "filter.predict" in text
        assert "service.filter_tick" in text
        assert "cache  hits=5" in text
        assert "ESS" in text
        assert "alerts: none firing" in text

    def test_active_alerts_section(self):
        state = TopState(
            records=[_record(1)],
            alerts={
                "rules": [
                    {"rule": "ess_collapse", "severity": "critical",
                     "field": "accuracy.ess_mean", "firing": True,
                     "last_value": 1.0},
                    {"rule": "backpressure", "severity": "info",
                     "firing": False},
                ]
            },
        )
        text = render_top(state)
        assert "ALERTS (1 active)" in text
        assert "[critical] ess_collapse" in text
        assert "backpressure" not in text

    def test_empty_state_renders_header_only(self):
        text = render_top(TopState())
        assert text.startswith("repro top   status=?")

    def test_lines_clipped_to_width(self):
        state = TopState(records=[_record(t) for t in range(1, 40)])
        text = render_top(state, width=40)
        assert all(len(line) <= 40 for line in text.splitlines())


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class TestEventLogSource:
    def _write_log(self, path, records):
        with EpochEventWriter(str(path)) as writer:
            for record in records:
                writer.write(record)

    def test_reads_records_and_health_from_log(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_log(path, [_record(1), _record(2, ess=20.0)])
        state = EventLogTopSource(str(path)).poll()
        assert state.health["status"] == "log"
        assert state.health["ticks"] == 2
        assert state.health["queue_depth"] == 2
        assert [r["tick"] for r in state.records] == [1, 2]

    def test_missing_log_yields_empty_state(self, tmp_path):
        state = EventLogTopSource(str(tmp_path / "absent.jsonl")).poll()
        assert state.records == []

    def test_fold_alerts_replays_transitions(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        self._write_log(events_path, [_record(1)])
        alerts_path = tmp_path / "alerts.jsonl"
        with EpochEventWriter(str(alerts_path), fmt=ALERTS_FORMAT,
                              version=ALERTS_VERSION) as writer:
            writer.write({"action": "fired", "rule": "a", "severity":
                          "critical", "field": "f", "tick": 3, "value": 1.0})
            writer.write({"action": "resolved", "rule": "a", "severity":
                          "critical", "field": "f", "tick": 4, "value": 9.0})
            writer.write({"action": "fired", "rule": "b", "severity":
                          "warning", "field": "g", "tick": 5, "value": 2.0})
        state = EventLogTopSource(
            str(events_path), alerts_path=str(alerts_path)
        ).poll()
        assert state.alerts["active_count"] == 1
        by_rule = {r["rule"]: r for r in state.alerts["rules"]}
        assert by_rule["a"]["firing"] is False
        assert by_rule["a"]["fired_count"] == 1
        assert by_rule["b"]["firing"] is True
        assert "ALERTS (1 active)" in render_top(state)


class TestHttpSource:
    def test_polls_real_server_and_diffs_ticks(self):
        obs.enable()
        health = {"status": "ok", "ticks": 0, "last_second": 0,
                  "last_tick_seconds": 0.01}
        server = MetricsServer(
            snapshot_provider=obs.snapshot,
            health_provider=lambda: dict(health),
        )
        with server:
            source = HttpTopSource(server.url(""))
            first = source.poll()  # primes the delta baseline
            assert first.health["status"] == "ok"
            assert first.records == []
            obs.add("filter.runs", 5)
            obs.observe("filter.ess", 30.0)
            health["ticks"] = 1
            second = source.poll()
            assert len(second.records) == 1
            assert second.records[0]["accuracy"]["ess_mean"] == 30.0
            # No tick advance -> no new record.
            third = source.poll()
            assert len(third.records) == 1

    def test_alerts_endpoint_absent_is_tolerated(self):
        obs.enable()
        with MetricsServer(snapshot_provider=obs.snapshot) as server:
            state = HttpTopSource(server.url("")).poll()
        # /alerts 404s without an engine; /snapshot is still folded.
        assert state.alerts == {} or "error" in state.alerts

    def test_unreachable_server_degrades(self):
        state = HttpTopSource("http://127.0.0.1:1").poll()
        assert state.health["status"] == "unreachable"
        assert state.records == []


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------
class _StubSource:
    def __init__(self):
        self.polls = 0

    def poll(self):
        self.polls += 1
        return TopState(health={"status": "ok", "ticks": self.polls})


class TestTopLoop:
    def _loop(self, **kwargs):
        frames = []
        sleeps = []
        loop = TopLoop(
            source=_StubSource(),
            clock=lambda: 0.0,
            sleep=sleeps.append,
            emit=frames.append,
            use_ansi=False,
            **kwargs,
        )
        return loop, frames, sleeps

    def test_renders_requested_frames_then_stops(self):
        loop, frames, sleeps = self._loop(frames=3, interval=0.5)
        assert loop.run() == 3
        assert len(frames) == 3
        assert sleeps == [0.5, 0.5]  # no sleep after the final frame

    def test_ansi_prefix_only_when_enabled(self):
        loop, frames, _ = self._loop(frames=1)
        loop.use_ansi = True
        assert loop.render_frame().startswith(ANSI_CLEAR)
        loop.use_ansi = False
        assert loop.render_frame().startswith("repro top")

    def test_q_key_quits(self):
        keys = iter(["q"])
        loop = TopLoop(
            source=_StubSource(), clock=lambda: 0.0, sleep=lambda _: None,
            emit=lambda _: None, key_reader=lambda: next(keys, None),
            use_ansi=False,
        )
        assert loop.run() == 0

    def test_p_key_pauses_and_resumes(self):
        keys = iter(["p", None, "p", "q"])
        emitted = []
        loop = TopLoop(
            source=_StubSource(), clock=lambda: 0.0, sleep=lambda _: None,
            emit=emitted.append, key_reader=lambda: next(keys, "q"),
            use_ansi=False,
        )
        loop.run()
        # Paused for two iterations, rendered once after resuming.
        assert len(emitted) == 1

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TopLoop(source=_StubSource(), clock=lambda: 0.0,
                    sleep=lambda _: None, interval=0.0)
