"""Tests for the observability layer (repro.obs)."""

import json
import os
import tracemalloc

import pytest

from repro import obs
from repro.obs.registry import Histogram, MetricsRegistry, Stopwatch
from repro.obs.report import (
    build_snapshot,
    load_trace,
    metric_rows,
    render_summary,
    write_csv,
    write_json,
)
from repro.obs.tracer import Tracer


class FakeClock:
    """Monotonic fake: every read advances by a fixed tick."""

    def __init__(self, tick=1.0, start=0.0):
        self.tick = tick
        self.now = start

    def __call__(self):
        self.now += self.tick
        return self.now


@pytest.fixture(autouse=True)
def clean_obs():
    """Leave the process-local obs state exactly as the suite expects."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


# ----------------------------------------------------------------------
# registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        assert registry.counter("c").value == 5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3)
        registry.gauge("g").set(7.5)
        assert registry.gauge("g").value == 7.5

    def test_histogram_summary(self):
        h = Histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0, 5.0]:
            h.observe(v)
        assert h.count == 5
        assert h.total == 15.0
        assert h.mean == 3.0
        assert h.min == 1.0
        assert h.max == 5.0
        assert h.quantile(0.0) == 1.0
        assert h.quantile(0.5) == 3.0
        assert h.quantile(1.0) == 5.0

    def test_histogram_quantile_bounds(self):
        h = Histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_histogram_sample_cap_keeps_exact_totals(self):
        h = Histogram("h", max_samples=3)
        for v in range(10):
            h.observe(float(v))
        assert h.count == 10
        assert h.total == 45.0
        assert h.max == 9.0
        assert h.dropped == 7
        # Quantiles degrade to the retained prefix but never crash.
        assert h.quantile(1.0) == 2.0

    def test_timer_uses_injected_clock(self):
        registry = MetricsRegistry(clock=FakeClock(tick=2.0))
        with registry.timer("t"):
            pass
        assert registry.histogram("t").count == 1
        assert registry.histogram("t").total == 2.0

    def test_timer_nests(self):
        registry = MetricsRegistry(clock=FakeClock(tick=1.0))
        with registry.timer("outer"):
            with registry.timer("inner"):
                pass
        # outer spans 3 ticks (enter=1, inner consumes 2,3, exit=4).
        assert registry.histogram("inner").total == 1.0
        assert registry.histogram("outer").total == 3.0

    def test_stopwatch_accumulates_laps(self):
        sw = Stopwatch(clock=FakeClock(tick=1.0))
        with sw:
            pass
        with sw:
            pass
        assert sw.laps == 2
        assert sw.total == 2.0

    def test_clear_drops_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.clear()
        assert registry.snapshot() == {
            "counters": [], "gauges": [], "histograms": []
        }


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_nesting_depth_and_parents(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a"):
            with tracer.span("b"):
                assert tracer.depth == 2
            with tracer.span("c"):
                pass
        spans = {s.name: s for s in tracer.spans()}
        assert spans["a"].depth == 0 and spans["a"].parent is None
        assert spans["b"].depth == 1 and spans["b"].parent == spans["a"].index
        assert spans["c"].depth == 1 and spans["c"].parent == spans["a"].index

    def test_durations_from_fake_clock(self):
        tracer = Tracer(clock=FakeClock(tick=1.0))
        with tracer.span("a"):
            pass
        (span,) = tracer.spans()
        assert span.start == 1.0 and span.end == 2.0 and span.duration == 1.0

    def test_aggregates_exact_past_cap(self):
        tracer = Tracer(clock=FakeClock(tick=1.0), max_spans=2)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 3
        assert tracer.aggregates()["x"].count == 5

    def test_out_of_order_close_raises(self):
        tracer = Tracer(clock=FakeClock())
        a = tracer.span("a")
        b = tracer.span("b")
        with pytest.raises(RuntimeError):
            a.__exit__(None, None, None)
        b.__exit__(None, None, None)

    def test_attrs_recorded(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("a", object="o1") as active:
            active.set_attr("extra", 2)
        (span,) = tracer.spans()
        assert span.attrs == {"object": "o1", "extra": 2}


# ----------------------------------------------------------------------
# facade on/off switch and no-op fast path
# ----------------------------------------------------------------------
class TestFacade:
    def test_disabled_records_nothing(self):
        obs.add("c", 5)
        obs.gauge_set("g", 1.0)
        obs.observe("h", 2.0)
        with obs.span("s"):
            with obs.timer("t"):
                pass
        snap = obs.registry().snapshot()
        assert snap == {"counters": [], "gauges": [], "histograms": []}
        assert obs.tracer().spans() == []

    def test_disabled_span_is_shared_noop(self):
        assert obs.span("a") is obs.span("b")
        assert obs.timer("a") is obs.span("b")

    def test_enable_records(self):
        obs.enable()
        obs.add("c", 2)
        with obs.span("s"):
            pass
        assert obs.registry().counter("c").value == 2
        assert [s.name for s in obs.tracer().spans()] == ["s"]

    def test_enable_fresh_clears_previous_run(self):
        obs.enable()
        obs.add("c")
        obs.enable(fresh=True)
        assert obs.registry().snapshot()["counters"] == []

    def test_disable_preserves_data(self):
        obs.enable()
        obs.add("c")
        obs.disable()
        assert obs.registry().counter("c").value == 1

    def test_timed_decorator(self):
        obs.enable()

        @obs.timed("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert obs.tracer().aggregates()["work"].count == 1

    def test_timed_decorator_noop_when_disabled(self):
        @obs.timed("work")
        def work(x):
            return x + 1

        assert work(1) == 2
        assert obs.tracer().spans() == []

    def test_disabled_path_reaches_no_recorder_and_keeps_no_memory(
        self, monkeypatch
    ):
        """The guard every instrumented hot-path call site pays while off.

        With obs disabled, no call may reach the registry or the tracer
        (they raise here), and nothing allocated under ``repro/obs`` may
        outlive the loop.
        """
        def recorder_called(*args, **kwargs):
            raise AssertionError("disabled obs reached a recorder")

        for method in ("counter", "gauge", "histogram", "timer"):
            monkeypatch.setattr(MetricsRegistry, method, recorder_called)
        monkeypatch.setattr(Tracer, "span", recorder_called)

        @obs.timed("guard.timed")
        def step(checksum, index):
            return (checksum ^ (index << 1)) % 1_000_003

        only_obs = [tracemalloc.Filter(True, os.path.join("*repro", "obs", "*"))]
        checksum = 7
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot().filter_traces(only_obs)
            for index in range(10_000):
                obs.add("guard.add")
                obs.observe_seconds("guard.seconds", 0.001)
                obs.gauge_set("guard.gauge", float(index))
                with obs.timer("guard.timer"):
                    checksum = (checksum * 31 + index) % 1_000_003
                with obs.span("guard.span"):
                    checksum = step(checksum, index)
            after = tracemalloc.take_snapshot().filter_traces(only_obs)
        finally:
            tracemalloc.stop()
        grown = [
            stat for stat in after.compare_to(before, "lineno") if stat.size_diff > 0
        ]
        assert grown == [], grown
        assert 0 <= checksum < 1_000_003

    def test_set_clock_applies_everywhere(self):
        obs.enable()
        obs.set_clock(FakeClock(tick=0.5))
        with obs.span("s"):
            with obs.timer("t"):
                pass
        assert obs.registry().histogram("t").total == 0.5
        (span,) = obs.tracer().spans()
        assert span.duration == 1.5


# ----------------------------------------------------------------------
# export / report
# ----------------------------------------------------------------------
class TestReport:
    def _populated(self):
        registry = MetricsRegistry(clock=FakeClock(tick=1.0))
        tracer = Tracer(clock=FakeClock(tick=1.0))
        registry.counter("prune.objects_pruned").inc(9)
        registry.gauge("objects").set(12)
        with registry.timer("filter.predict"):
            pass
        with tracer.span("engine.evaluate"):
            with tracer.span("engine.filter"):
                pass
        return registry, tracer

    def test_snapshot_roundtrip_through_json(self, tmp_path):
        registry, tracer = self._populated()
        data = build_snapshot(registry, tracer, meta={"seed": 7})
        path = tmp_path / "trace.json"
        write_json(data, str(path))
        loaded = load_trace(str(path))
        assert loaded == json.loads(json.dumps(data))
        assert loaded["meta"] == {"seed": 7}
        names = [s["name"] for s in loaded["trace"]["spans"]]
        assert names == ["engine.filter", "engine.evaluate"]

    def test_snapshot_is_deterministic_with_fake_clock(self, tmp_path):
        a = build_snapshot(*self._populated())
        b = build_snapshot(*self._populated())
        assert json.dumps(a) == json.dumps(b)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_metric_rows_cover_all_kinds(self):
        data = build_snapshot(*self._populated())
        kinds = {row["kind"] for row in metric_rows(data)}
        assert kinds == {"counter", "gauge", "histogram", "span"}

    def test_csv_export(self, tmp_path):
        data = build_snapshot(*self._populated())
        path = tmp_path / "rows.csv"
        write_csv(data, str(path))
        text = path.read_text()
        assert text.startswith("kind,name,value")
        assert "prune.objects_pruned" in text

    def test_summary_renders_all_sections(self):
        text = render_summary(build_snapshot(*self._populated()))
        assert "counters" in text
        assert "gauges" in text
        assert "histograms" in text
        assert "spans" in text
        assert "engine.evaluate" in text

    def test_summary_of_empty_trace(self):
        registry = MetricsRegistry()
        tracer = Tracer()
        text = render_summary(build_snapshot(registry, tracer))
        assert "empty trace" in text


# ----------------------------------------------------------------------
# pipeline integration
# ----------------------------------------------------------------------
class TestPipelineIntegration:
    CFG = None  # built lazily to keep import cost out of collection

    def _config(self):
        from repro.config import DEFAULT_CONFIG

        return DEFAULT_CONFIG.with_overrides(
            num_objects=6, duration_seconds=25, warmup_seconds=10, seed=11
        )

    def test_simulation_config_toggle_enables_obs(self):
        from repro.sim import Simulation

        Simulation(
            self._config().with_overrides(observability=True),
            build_symbolic=False,
        )
        assert obs.enabled()

    def test_trace_covers_filter_pruning_cache_collector(self):
        from repro.geometry import Rect
        from repro.sim import Simulation

        obs.enable()
        sim = Simulation(self._config(), build_symbolic=False)
        sim.run_until(25)
        sim.pf_engine.range_query(Rect(0, 0, 60, 40), 25)
        snap = obs.snapshot()
        counters = {c["name"] for c in snap["metrics"]["counters"]}
        histograms = {h["name"] for h in snap["metrics"]["histograms"]}
        assert "prune.objects_seen" in counters
        assert "collector.raw_readings" in counters
        assert {"filter.predict", "filter.weight"} <= histograms
        span_names = {a["name"] for a in snap["trace"]["aggregates"]}
        assert "engine.evaluate" in span_names
        assert "filter.run" in span_names

    def test_disabled_pipeline_records_nothing(self):
        from repro.sim import Simulation

        sim = Simulation(self._config(), build_symbolic=False)
        sim.run_until(15)
        assert obs.registry().snapshot()["counters"] == []
        assert obs.tracer().spans() == []
