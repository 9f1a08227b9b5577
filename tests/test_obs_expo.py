"""Prometheus exposition and the /metrics + /healthz HTTP endpoints."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.expo import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    escape_label_value,
    metric_name,
    render_prometheus,
)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


def _snapshot_with_series():
    obs.enable()
    obs.add("engine.queries", 3, labels={"query": "range"})
    obs.add("engine.queries", 2, labels={"query": "knn"})
    obs.add("cache.hits", 7)
    obs.gauge_set("service.tracked_objects", 4)
    obs.observe("service.tick_latency", 0.25)
    obs.observe("service.filter_tick", 0.1, labels={"backend": "particle"})
    return obs.snapshot()


# ----------------------------------------------------------------------
# text format
# ----------------------------------------------------------------------
class TestRenderPrometheus:
    def test_counters_get_total_suffix_and_labels(self):
        text = render_prometheus(_snapshot_with_series())
        assert "# TYPE repro_engine_queries_total counter" in text
        assert 'repro_engine_queries_total{query="range"} 3' in text
        assert 'repro_engine_queries_total{query="knn"} 2' in text
        assert "repro_cache_hits_total 7" in text

    def test_gauges_and_summaries(self):
        text = render_prometheus(_snapshot_with_series())
        assert "# TYPE repro_service_tracked_objects gauge" in text
        assert "repro_service_tracked_objects 4.0" in text
        assert "# TYPE repro_service_tick_latency summary" in text
        assert 'repro_service_tick_latency{quantile="0.5"} 0.25' in text
        assert "repro_service_tick_latency_sum 0.25" in text
        assert "repro_service_tick_latency_count 1" in text

    def test_labeled_summary_merges_quantile_label(self):
        text = render_prometheus(_snapshot_with_series())
        assert (
            'repro_service_filter_tick{backend="particle",quantile="0.5"} 0.1'
            in text
        )

    def test_type_line_emitted_once_per_family(self):
        text = render_prometheus(_snapshot_with_series())
        assert text.count("# TYPE repro_engine_queries_total counter") == 1

    def test_dropped_samples_become_counter_family(self):
        obs.enable()
        h = obs.registry().histogram("capped")
        h.max_samples = 2
        for i in range(5):
            h.observe(float(i))
        text = render_prometheus(obs.snapshot())
        assert "# TYPE repro_capped_dropped_samples_total counter" in text
        assert "repro_capped_dropped_samples_total 3" in text

    def test_accepts_bare_metrics_snapshot(self):
        # Offline `repro stats --prom` feeds trace files whose metrics
        # live under data["metrics"]; live callers pass the same shape.
        obs.enable()
        obs.add("c")
        text = render_prometheus({"metrics": obs.registry().snapshot()})
        assert "repro_c_total 1" in text

    def test_metric_name_sanitization(self):
        assert metric_name("filter.predict") == "repro_filter_predict"
        assert metric_name("weird-name!x") == "repro_weird_name_x"
        assert metric_name("0lead") == "repro_0lead"
        assert metric_name("cache.hits", "_total") == "repro_cache_hits_total"

    def test_label_value_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'


# ----------------------------------------------------------------------
# HTTP endpoints
# ----------------------------------------------------------------------
def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, dict(response.headers), response.read()


class TestMetricsServer:
    def test_metrics_endpoint_serves_prometheus_text(self):
        snap = _snapshot_with_series()
        with MetricsServer(snapshot_provider=lambda: snap) as server:
            status, headers, body = _get(server.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        text = body.decode("utf-8")
        assert 'repro_engine_queries_total{query="range"} 3' in text

    def test_healthz_ok_and_stalled(self):
        health = {"status": "ok", "ticks": 5}
        server = MetricsServer(
            snapshot_provider=obs.snapshot,
            health_provider=lambda: health,
        )
        with server:
            status, _, body = _get(server.url("/healthz"))
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["ticks"] == 5
            # every health payload identifies the running build
            assert payload["build"]["version"]
            assert payload["build"]["python"]
            health["status"] = "stalled"
            try:
                status, _, body = _get(server.url("/healthz"))
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read()
            assert status == 503
            assert json.loads(body)["status"] == "stalled"

    def test_readyz_tracks_provider(self):
        ready = {"value": False}
        server = MetricsServer(
            snapshot_provider=obs.snapshot,
            ready_provider=lambda: ready["value"],
        )
        with server:
            try:
                status, _, body = _get(server.url("/readyz"))
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read()
            assert status == 503
            assert json.loads(body) == {"ready": False}
            ready["value"] = True
            status, _, body = _get(server.url("/readyz"))
            assert status == 200
            assert json.loads(body) == {"ready": True}

    def test_unknown_path_404(self):
        with MetricsServer(snapshot_provider=obs.snapshot) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/nope"))
            assert excinfo.value.code == 404

    def test_provider_error_returns_500(self):
        def boom():
            raise RuntimeError("snapshot failed")

        with MetricsServer(snapshot_provider=boom) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/metrics"))
            assert excinfo.value.code == 500

    def test_port_zero_binds_ephemeral_port(self):
        server = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        port = server.start()
        try:
            assert port > 0
            assert server.port == port
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = MetricsServer(snapshot_provider=obs.snapshot)
        server.start()
        server.stop()
        server.stop()
