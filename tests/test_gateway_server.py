"""The gateway's HTTP/JSON surface, exercised over a real socket."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.gateway import (
    GatewayCoordinator,
    GatewayServer,
    TenantWorld,
    demo_tenants,
)
from repro.service import LiveSimSource
from repro.sim import Simulation

SECONDS = 5


def _specs():
    return demo_tenants(2, base_seed=31, num_objects=4, plan="small")


def _request(url, method="GET", body=None):
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url,
        method=method,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        with error:
            payload = error.read()
        try:
            return error.code, json.loads(payload)
        except json.JSONDecodeError:
            return error.code, payload.decode("utf-8", "replace")


def _request_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


@pytest.fixture(scope="module")
def gateway():
    """A ticked 2-tenant inline deployment behind a live HTTP server."""
    coordinator = GatewayCoordinator(_specs(), 2, transport="inline")
    coordinator.enable_analytics()
    for spec in _specs():
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        for batch in LiveSimSource(sim, SECONDS).batches():
            coordinator.process_batch(spec.tenant_id, batch)
    server = GatewayServer(coordinator).start()
    yield server.url, coordinator
    server.stop()
    coordinator.close()


class TestReadEndpoints:
    def test_root_directory(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/")
        assert status == 200
        assert "/query/range" in doc["endpoints"]

    def test_healthz_ok(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/healthz")
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["dead_partitions"] == 0
        assert set(doc["tenants"]) == {"tenant-0", "tenant-1"}

    def test_readyz(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/readyz")
        assert status == 200
        assert doc["ready"] is True

    def test_metrics_reports_obs_disabled(self, gateway):
        url, _ = gateway
        assert not obs.enabled()
        status, body = _request_text(url + "/metrics")
        assert status == 200
        assert "observability disabled" in body

    def test_tenants_directory(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/tenants")
        assert status == 200
        records = {record["tenant_id"]: record for record in doc["tenants"]}
        assert set(records) == {"tenant-0", "tenant-1"}
        for record in records.values():
            assert record["plan"] == "small"
            assert record["ticks"] == SECONDS

    def test_range_matches_coordinator(self, gateway):
        url, coordinator = gateway
        status, doc = _request(
            url + "/query/range?tenant=tenant-0"
            "&min_x=0&min_y=0&max_x=12&max_y=12"
        )
        assert status == 200
        from repro.geometry import Rect

        direct = coordinator.query_range("tenant-0", Rect(0, 0, 12, 12))
        assert doc["probabilities"] == pytest.approx(direct.probabilities)
        assert doc["second"] == SECONDS

    def test_knn(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/query/knn?tenant=tenant-1&x=5&y=5&k=2")
        assert status == 200
        assert doc["ranked"]
        probabilities = [p for _oid, p in doc["ranked"]]
        assert probabilities == sorted(probabilities, reverse=True)

    def test_analytics_summary(self, gateway):
        url, _ = gateway
        for tenant_id in ("tenant-0", "tenant-1"):
            status, doc = _request(url + f"/analytics?tenant={tenant_id}")
            assert status == 200
            assert doc["summary"]["epochs"] == SECONDS


class TestSessions:
    def test_open_poll_close(self, gateway):
        url, _ = gateway
        status, doc = _request(
            url + "/sessions",
            method="POST",
            body={"tenant": "tenant-0", "kind": "range", "window": [0, 0, 12, 12]},
        )
        assert status == 201
        session_id = doc["session_id"]
        status, doc = _request(
            url + f"/sessions?tenant=tenant-0&id={session_id}"
        )
        assert status == 200
        assert isinstance(doc["result"], dict)
        status, doc = _request(url + "/sessions?tenant=tenant-0")
        assert status == 200
        assert session_id in {s["session_id"] for s in doc["sessions"]}
        status, doc = _request(
            url + f"/sessions?tenant=tenant-0&id={session_id}", method="DELETE"
        )
        assert status == 200
        assert doc["closed"] == session_id

    def test_knn_session(self, gateway):
        url, _ = gateway
        status, doc = _request(
            url + "/sessions",
            method="POST",
            body={"tenant": "tenant-1", "kind": "knn", "point": [5, 5], "k": 2},
        )
        assert status == 201
        _request(
            url + f"/sessions?tenant=tenant-1&id={doc['session_id']}",
            method="DELETE",
        )


class TestErrorMapping:
    def test_unknown_route_404(self, gateway):
        url, _ = gateway
        assert _request(url + "/nope")[0] == 404

    def test_unknown_tenant_404(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/analytics?tenant=nobody")
        assert status == 404
        assert "nobody" in doc["error"]

    def test_missing_parameter_400(self, gateway):
        url, _ = gateway
        status, doc = _request(url + "/query/range?tenant=tenant-0&min_x=0")
        assert status == 400
        assert "min_y" in doc["error"]

    def test_non_numeric_parameter_400(self, gateway):
        url, _ = gateway
        status, _ = _request(
            url + "/query/knn?tenant=tenant-0&x=a&y=5&k=2"
        )
        assert status == 400

    def test_bad_k_400(self, gateway):
        url, _ = gateway
        status, _ = _request(url + "/query/knn?tenant=tenant-0&x=5&y=5&k=0")
        assert status == 400

    @pytest.mark.parametrize("query, name", [
        ("knn?tenant=tenant-0&x=nan&y=5&k=2", "x"),
        ("knn?tenant=tenant-0&x=inf&y=5&k=2", "x"),
        ("knn?tenant=tenant-0&x=5&y=-inf&k=2", "y"),
        ("knn?tenant=tenant-0&x=5&y=5&k=nan", "k"),
        ("knn?tenant=tenant-0&x=5&y=5&k=inf", "k"),
        ("range?tenant=tenant-0&min_x=nan&min_y=0&max_x=9&max_y=9", "min_x"),
        ("range?tenant=tenant-0&min_x=0&min_y=0&max_x=9&max_y=Infinity", "max_y"),
    ])
    def test_non_finite_parameter_400(self, gateway, query, name):
        url, _ = gateway
        status, doc = _request(url + "/query/" + query)
        assert status == 400
        assert f"parameter {name!r} is not finite" in doc["error"]

    def test_inverted_window_400(self, gateway):
        url, _ = gateway
        status, doc = _request(
            url + "/query/range?tenant=tenant-0&min_x=9&min_y=0&max_x=1&max_y=9"
        )
        assert status == 400
        assert "invalid Rect" in doc["error"]

    @pytest.mark.parametrize("body, name", [
        ({"kind": "range", "window": [0, 0, float("nan"), 9]}, "window"),
        ({"kind": "range", "window": [0, float("-inf"), 9, 9]}, "window"),
        ({"kind": "knn", "point": [float("nan"), 5], "k": 2}, "point"),
        ({"kind": "knn", "point": [5, float("inf")], "k": 2}, "point"),
        ({"kind": "knn", "point": [5, 5], "k": float("nan")}, "k"),
        ({"kind": "knn", "point": [5, 5], "k": float("inf")}, "k"),
        ({"kind": "knn", "point": [5, 5], "k": 0}, "k"),
    ])
    def test_non_finite_session_body_400(self, gateway, body, name):
        url, _ = gateway
        before = _request(url + "/sessions?tenant=tenant-0")
        status, doc = _request(
            url + "/sessions", method="POST", body={"tenant": "tenant-0", **body}
        )
        assert status == 400
        assert f"needs {name}:" in doc["error"]
        assert _request(url + "/sessions?tenant=tenant-0") == before

    def test_bad_session_body_400(self, gateway):
        url, _ = gateway
        status, _ = _request(
            url + "/sessions",
            method="POST",
            body={"tenant": "tenant-0", "kind": "range"},  # no window
        )
        assert status == 400
        status, _ = _request(
            url + "/sessions",
            method="POST",
            body={"tenant": "tenant-0", "kind": "median"},
        )
        assert status == 400

    def test_delete_unknown_session_404(self, gateway):
        url, _ = gateway
        status, _ = _request(
            url + "/sessions?tenant=tenant-0&id=ghost", method="DELETE"
        )
        assert status == 404


class TestDegradedServing:
    def test_healthz_503_but_queries_still_answer(self):
        coordinator = GatewayCoordinator(_specs(), 2, transport="inline")
        spec = _specs()[0]
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers,
            build_symbolic=False,
        )
        batches = list(LiveSimSource(sim, 3).batches())
        other = _specs()[1]
        other_world = TenantWorld(other)
        other_sim = Simulation(
            other_world.config, plan=other_world.plan,
            readers=other_world.readers, build_symbolic=False,
        )
        other_batches = list(LiveSimSource(other_sim, 3).batches())
        with GatewayServer(coordinator) as server:
            try:
                for step in range(2):
                    coordinator.process_batch(spec.tenant_id, batches[step])
                    coordinator.process_batch(other.tenant_id, other_batches[step])
                coordinator.submit_tick(spec.tenant_id, batches[2])
                coordinator.submit_tick(other.tenant_id, other_batches[2])
                coordinator.handles[0].kill()
                coordinator.collect_tick()
                coordinator.collect_tick()
                status, doc = _request(server.url + "/healthz")
                assert status == 503
                assert doc["status"] == "degraded"
                assert doc["dead_partitions"] == 1
                status, doc = _request(
                    server.url + "/query/range?tenant=tenant-0"
                    "&min_x=0&min_y=0&max_x=12&max_y=12"
                )
                assert status == 200
            finally:
                coordinator.close()

    def test_analytics_off_is_404(self):
        coordinator = GatewayCoordinator(_specs(), 1, transport="inline")
        with GatewayServer(coordinator) as server:
            try:
                status, doc = _request(server.url + "/analytics?tenant=tenant-0")
                assert status == 404
                assert "not enabled" in doc["error"]
            finally:
                coordinator.close()
