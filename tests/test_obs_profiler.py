"""Deterministic attribution profiler (repro.obs.profiler)."""

import json
import threading

import pytest

from repro import obs
from repro.config import DEFAULT_CONFIG
from repro.service import LiveSimSource, TrackingService
from repro.sim import Simulation
from repro.obs.profiler import (
    PROFILE_FORMAT,
    PROFILE_VERSION,
    SPEEDSCOPE_SCHEMA,
    CountingClock,
    build_profile,
    load_profile,
    render_attribution,
    to_collapsed,
    to_speedscope,
    write_collapsed,
    write_profile,
    write_speedscope,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


def _span(index, name, start, end, *, parent=None, depth=0, thread=0, attrs=None):
    span = {
        "index": index,
        "name": name,
        "start": start,
        "end": end,
        "parent": parent,
        "depth": depth,
        "thread": thread,
    }
    if attrs is not None:
        span["attrs"] = attrs
    return span


def _snapshot(spans, dropped=0, histograms=(), counters=()):
    return {
        "trace": {"spans": list(spans), "dropped": dropped},
        "metrics": {
            "histograms": list(histograms),
            "counters": list(counters),
            "gauges": [],
        },
    }


# ----------------------------------------------------------------------
# the clock
# ----------------------------------------------------------------------
class TestCountingClock:
    def test_kth_read_returns_k_times_step(self):
        clock = CountingClock(step=0.5)
        assert [clock() for _ in range(3)] == [0.5, 1.0, 1.5]
        assert clock.reads == 3

    def test_default_step_is_one_microsecond(self):
        clock = CountingClock()
        assert clock() == pytest.approx(1e-6)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            CountingClock(step=0.0)

    def test_thread_safe_reads_are_unique(self):
        clock = CountingClock()
        seen = []

        def reader():
            for _ in range(200):
                seen.append(clock())

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(seen)) == 800
        assert clock.reads == 800

    def test_installs_via_obs_set_clock(self):
        obs.enable()
        obs.set_clock(CountingClock())
        with obs.span("a"):
            with obs.span("b"):
                pass
        spans = obs.snapshot()["trace"]["spans"]
        durations = {s["name"]: s["end"] - s["start"] for s in spans}
        # b consumes exactly its two boundary reads; a additionally
        # brackets b's reads: deterministic operation counting.
        assert durations["b"] == pytest.approx(1e-6)
        assert durations["a"] == pytest.approx(3e-6)


# ----------------------------------------------------------------------
# attribution math
# ----------------------------------------------------------------------
class TestBuildProfile:
    def test_self_excludes_direct_children(self):
        spans = [
            _span(0, "tick", 0.0, 10.0),
            _span(1, "filter", 1.0, 5.0, parent=0, depth=1),
            _span(2, "query", 6.0, 9.0, parent=0, depth=1),
        ]
        profile = build_profile(_snapshot(spans))
        rows = {r.phase: r for r in profile.phases}
        assert rows["tick"].self_seconds == pytest.approx(3.0)  # 10 - 4 - 3
        assert rows["tick"].cum_seconds == pytest.approx(10.0)
        assert rows["filter"].self_seconds == pytest.approx(4.0)
        assert profile.total_seconds == pytest.approx(10.0)

    def test_recursive_reentry_counts_cum_once(self):
        spans = [
            _span(0, "walk", 0.0, 8.0),
            _span(1, "walk", 1.0, 7.0, parent=0, depth=1),
            _span(2, "walk", 2.0, 6.0, parent=1, depth=2),
        ]
        profile = build_profile(_snapshot(spans))
        row = profile.phases[0]
        assert row.phase == "walk"
        assert row.calls == 3
        # Only the outermost occurrence contributes to cum.
        assert row.cum_seconds == pytest.approx(8.0)
        # Self still sums every level: 2 + 2 + 4.
        assert row.self_seconds == pytest.approx(8.0)

    def test_self_clamped_nonnegative_on_overlapping_children(self):
        spans = [
            _span(0, "parent", 0.0, 2.0),
            _span(1, "child", 0.0, 1.5, parent=0, depth=1),
            _span(2, "child", 0.0, 1.5, parent=0, depth=1),
        ]
        profile = build_profile(_snapshot(spans))
        rows = {r.phase: r for r in profile.phases}
        assert rows["parent"].self_seconds == 0.0

    def test_paths_join_ancestors_with_semicolons(self):
        spans = [
            _span(0, "a", 0.0, 4.0),
            _span(1, "b", 1.0, 3.0, parent=0, depth=1),
        ]
        profile = build_profile(_snapshot(spans))
        assert {r.path for r in profile.paths} == {"a", "a;b"}

    def test_unfinished_spans_are_ignored(self):
        spans = [
            _span(0, "done", 0.0, 1.0),
            _span(1, "open", 0.5, None),
        ]
        profile = build_profile(_snapshot(spans))
        assert [r.phase for r in profile.phases] == ["done"]

    def test_dropped_span_count_carried_through(self):
        profile = build_profile(_snapshot([], dropped=17))
        assert profile.dropped_spans == 17
        assert "17 spans past the retention cap" in render_attribution(profile)

    def test_backend_and_timer_rows(self):
        spans = [
            _span(0, "filter.run", 0.0, 2.0, attrs={"object": "o1", "backend": "symbolic"}),
            _span(1, "filter.run", 2.0, 3.0, attrs={"object": "o1", "backend": "particle"}),
            _span(2, "filter.run", 3.0, 5.0, attrs={"object": "o2", "backend": "particle"}),
        ]
        histograms = [
            {"name": "service.filter_tick", "labels": {"backend": "symbolic"},
             "count": 4, "total": 9.0},
            {"name": "service.filter_tick", "labels": {"backend": "particle"},
             "count": 8, "total": 9.0},
            {"name": "filter.predict", "count": 40, "total": 0.5},
        ]
        counters = [
            {"name": "filter.backend_runs", "labels": {"backend": "particle"},
             "value": 120},
        ]
        profile = build_profile(
            _snapshot(spans, histograms=histograms, counters=counters)
        )
        # Seconds come from the filter.run spans, ticks from the service timer.
        assert profile.backends == [
            {"backend": "particle", "filter_runs": 120, "ticks": 8,
             "seconds": 3.0},
            {"backend": "symbolic", "filter_runs": 0, "ticks": 4,
             "seconds": 2.0},
        ]
        series = {r["series"] for r in profile.timers}
        assert "filter.predict" in series
        assert 'service.filter_tick{backend="particle"}' not in series  # plain k=v form
        assert "service.filter_tick{backend=particle}" in series


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------
class TestExports:
    def _profile(self):
        spans = [
            _span(0, "a", 0.0, 4e-6),
            _span(1, "b", 1e-6, 3e-6, parent=0, depth=1),
        ]
        return build_profile(_snapshot(spans)), _snapshot(spans)

    def test_collapsed_lines_are_integer_microseconds(self):
        profile, _ = self._profile()
        text = to_collapsed(profile)
        assert text == "a 2\na;b 2\n"

    def test_speedscope_document_shape(self):
        _, snapshot = self._profile()
        doc = to_speedscope(snapshot, name="t")
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert [f["name"] for f in doc["shared"]["frames"]] == ["a", "b"]
        events = doc["profiles"][0]["events"]
        assert [e["type"] for e in events] == ["O", "O", "C", "C"]
        assert events[0]["frame"] == 0 and events[1]["frame"] == 1

    def test_speedscope_close_precedes_open_at_same_timestamp(self):
        spans = [
            _span(0, "first", 0.0, 1.0),
            _span(1, "second", 1.0, 2.0),
        ]
        doc = to_speedscope(_snapshot(spans))
        events = doc["profiles"][0]["events"]
        assert [(e["type"], e["at"]) for e in events] == [
            ("O", 0.0), ("C", 1.0), ("O", 1.0), ("C", 2.0),
        ]

    def test_file_roundtrip_and_validation(self, tmp_path):
        profile, snapshot = self._profile()
        p = tmp_path / "prof.json"
        write_profile(profile, str(p))
        loaded = load_profile(str(p))
        assert loaded["format"] == PROFILE_FORMAT
        assert loaded["version"] == PROFILE_VERSION == 2
        assert "object_buckets" not in loaded
        write_speedscope(snapshot, str(tmp_path / "ss.json"))
        write_collapsed(profile, str(tmp_path / "c.txt"))
        assert (tmp_path / "c.txt").read_text() == to_collapsed(profile)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError):
            load_profile(str(bad))

    def test_exports_are_bit_stable(self, tmp_path):
        profile, snapshot = self._profile()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_profile(profile, str(a))
        write_profile(build_profile(snapshot), str(b))
        assert a.read_bytes() == b.read_bytes()
        sa, sb = tmp_path / "sa.json", tmp_path / "sb.json"
        write_speedscope(snapshot, str(sa))
        write_speedscope(snapshot, str(sb))
        assert sa.read_bytes() == sb.read_bytes()


# ----------------------------------------------------------------------
# report + end-to-end determinism through the real tracer
# ----------------------------------------------------------------------
class TestRenderAndIntegration:
    def test_render_uses_integer_units_for_deterministic_clock(self):
        spans = [_span(0, "a", 0.0, 5e-6)]
        profile = build_profile(_snapshot(spans), clock="deterministic")
        text = render_attribution(profile)
        assert "clock=deterministic" in text
        assert "total 5 units" in text

    def test_same_instrumented_run_gives_identical_profiles(self):
        def run():
            obs.disable()
            obs.reset()
            obs.enable()
            obs.set_clock(CountingClock())
            for turn in range(3):
                with obs.span("tick"):
                    with obs.span("filter.run", attrs={"object": f"o{turn}"}):
                        with obs.timer("filter.predict"):
                            pass
            snapshot = obs.snapshot()
            obs.disable()
            return build_profile(snapshot, clock="deterministic")

        first, second = run(), run()
        assert first.as_dict() == second.as_dict()
        assert to_collapsed(first) == to_collapsed(second)


class TestPerBackendSeconds:
    """Per-backend seconds are non-zero whenever filter runs were counted."""

    CONFIG = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=7)

    @staticmethod
    def _profile(drive):
        obs.enable()
        obs.set_clock(CountingClock())
        drive()
        snapshot = obs.snapshot()
        obs.disable()
        profile = build_profile(snapshot, clock="deterministic")
        assert any(row["filter_runs"] for row in profile.backends)
        for row in profile.backends:
            if row["filter_runs"]:
                assert row["seconds"] > 0.0, row
        return profile

    @pytest.mark.parametrize("backend", ["particle", "symbolic"])
    def test_batch_engine_path(self, backend):
        def drive():
            sim = Simulation(self.CONFIG, build_symbolic=False, filter_backend=backend)
            sim.run_for(10)
            sim.pf_engine.locations_snapshot(sim.now)

        profile = self._profile(drive)
        assert [row["backend"] for row in profile.backends] == [backend]
        assert profile.backends[0]["ticks"] == 0  # no service timer here

    def test_service_path(self):
        def drive():
            service = TrackingService(self.CONFIG)
            sim = Simulation(
                self.CONFIG, plan=service.plan, readers=service.readers,
                build_symbolic=False,
            )
            for batch in LiveSimSource(sim, 10).batches():
                service.process_batch(batch)

        profile = self._profile(drive)
        assert profile.backends[0]["ticks"] == 10


class TestLockstepSpans:
    """The particle filter emits one ``filter.run`` span per batch."""

    def test_one_span_per_tick_batch_and_seconds_add_up(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=7)
        service = TrackingService(config)
        sim = Simulation(
            config, plan=service.plan, readers=service.readers, build_symbolic=False
        )
        obs.enable()
        obs.set_clock(CountingClock())
        for batch in LiveSimSource(sim, 10).batches():
            service.process_batch(batch)
        snapshot = obs.snapshot()
        obs.disable()

        spans = [s for s in snapshot["trace"]["spans"] if s["name"] == "filter.run"]
        assert spans
        # Every object of a tick has its own stream and one particle
        # count: a tick is one batch.
        assert len(spans) <= 10
        assert all(s["attrs"]["backend"] == "particle" for s in spans)
        runs = sum(
            item["value"] for item in snapshot["metrics"]["counters"]
            if item["name"] == "filter.runs"
        )
        assert sum(s["attrs"]["objects"] for s in spans) == runs
        profile = build_profile(snapshot, clock="deterministic")
        (row,) = profile.backends
        assert row["filter_runs"] == runs
        assert row["seconds"] == pytest.approx(sum(s["end"] - s["start"] for s in spans))


class TestInitAttribution:
    """Particle seeding is its own ``filter.init`` timer series."""

    def test_init_series_counts_every_seeding(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=7)
        obs.enable()
        obs.set_clock(CountingClock())
        sim = Simulation(config, build_symbolic=False)
        sim.run_for(20)
        sim.pf_engine.locations_snapshot(sim.now)
        snapshot = obs.snapshot()
        obs.disable()

        timers = {row["series"]: row for row in build_profile(snapshot).timers}
        assert "filter.init" in timers
        assert timers["filter.init"]["total_seconds"] > 0.0

        counters = {}
        for item in snapshot["metrics"]["counters"]:
            counters[item["name"]] = counters.get(item["name"], 0) + item["value"]
        seedings = (
            counters["filter.runs"]
            - counters.get("filter.resumed_runs", 0)
            + counters.get("filter.depletion_reseeds", 0)
        )
        # One timed pass seeds every new cloud of a lockstep call, and one
        # every depleted cloud of an observation.
        assert 0 < timers["filter.init"]["count"] <= seedings


class TestTimerMark:
    """Only timer-backed histograms are time; the rest are plain values."""

    def test_registry_marks_timer_series_in_the_snapshot(self):
        obs.enable()
        obs.set_clock(CountingClock())
        with obs.timer("filter.predict"):
            pass
        obs.observe("filter.ess", 37.5)
        obs.observe("collector.raw_readings_per_second", 320.0)
        snapshot = obs.snapshot()
        obs.disable()

        marks = {item["name"]: item["timer"] for item in snapshot["metrics"]["histograms"]}
        assert marks == {
            "collector.raw_readings_per_second": False,
            "filter.ess": False,
            "filter.predict": True,
        }
        profile = build_profile(snapshot)
        assert [row["series"] for row in profile.timers] == ["filter.predict"]
        assert [row["series"] for row in profile.values] == [
            "collector.raw_readings_per_second",
            "filter.ess",
        ]
        assert profile.values[1] == {
            "series": "filter.ess", "count": 1, "mean": 37.5, "min": 37.5, "max": 37.5,
        }
        assert json.loads(json.dumps(profile.as_dict()))["values"] == profile.values

        for deterministic in (True, False):
            profile.clock = "deterministic" if deterministic else "wall"
            text = render_attribution(profile)
            value_lines = [line for line in text.splitlines() if "filter.ess" in line]
            assert value_lines == ["  filter.ess                              1 x  mean 37.5 (min 37.5, max 37.5)"]
            assert not any(
                "seconds" in line or "units" in line
                for line in text.splitlines()
                if "filter.ess" in line or "raw_readings" in line
            )

    def test_unmarked_snapshots_read_as_timers(self):
        # A snapshot written before the mark existed keeps its old reading.
        histograms = [{"name": "filter.predict", "count": 2, "total": 0.5}]
        profile = build_profile(_snapshot([], histograms=histograms))
        assert [row["series"] for row in profile.timers] == ["filter.predict"]
        assert profile.values == []
