"""MetricsServer lifecycle: shutdown, port reuse, concurrent scrapes."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs.expo import MetricsServer


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read()


class TestLifecycle:
    def test_stop_releases_the_port(self):
        server = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        port = server.start()
        server.stop()
        # A fresh socket can bind the exact port the server released.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()

    def test_stopped_server_refuses_connections(self):
        server = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        server.start()
        url = server.url("/metrics")
        _get(url)  # alive
        server.stop()
        with pytest.raises((urllib.error.URLError, OSError)):
            urllib.request.urlopen(url, timeout=1)

    def test_restart_on_same_ephemeral_port(self):
        first = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        port = first.start()
        first.stop()
        second = MetricsServer(snapshot_provider=obs.snapshot, port=port)
        try:
            assert second.start() == port
            status, _ = _get(second.url("/metrics"))
            assert status == 200
        finally:
            second.stop()

    def test_two_servers_coexist_on_distinct_ports(self):
        a = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        b = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        try:
            assert a.start() != b.start()
            assert _get(a.url("/metrics"))[0] == 200
            assert _get(b.url("/metrics"))[0] == 200
        finally:
            a.stop()
            b.stop()

    def test_concurrent_scrapes_during_metric_ticks(self):
        """Scrapes racing live registry writes must all succeed."""
        obs.enable()
        stop = threading.Event()

        def ticker():
            second = 0
            while not stop.is_set():
                second += 1
                obs.add("service.epochs")
                obs.observe("filter.ess", float(second % 64))
                obs.gauge_set("service.queue_depth", second % 8)

        errors = []
        bodies = []

        def scraper(url):
            try:
                for _ in range(25):
                    status, body = _get(url)
                    assert status == 200
                    bodies.append(body)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        with MetricsServer(snapshot_provider=obs.snapshot) as server:
            writer = threading.Thread(target=ticker)
            writer.start()
            scrapers = [
                threading.Thread(
                    target=scraper, args=(server.url("/metrics"),)
                )
                for _ in range(3)
            ]
            for t in scrapers:
                t.start()
            for t in scrapers:
                t.join()
            stop.set()
            writer.join()
        assert not errors
        assert len(bodies) == 75
        assert any(b"repro_service_epochs_total" in body for body in bodies)

    def test_health_transitions_503_then_200(self):
        health = {"status": "starting", "ticks": 0}
        server = MetricsServer(
            snapshot_provider=obs.snapshot,
            health_provider=lambda: dict(health),
        )
        with server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url("/healthz"))
            with excinfo.value as reply:
                assert reply.code == 503
                assert json.loads(reply.read())["status"] == "starting"
            health["status"] = "ok"
            health["ticks"] = 3
            status, body = _get(server.url("/healthz"))
            assert status == 200
            assert json.loads(body)["ticks"] == 3

    def test_context_manager_stops_on_exception(self):
        server = MetricsServer(snapshot_provider=obs.snapshot, port=0)
        with pytest.raises(RuntimeError):
            with server:
                port = server.port
                raise RuntimeError("boom")
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            probe.bind(("127.0.0.1", port))
        finally:
            probe.close()
