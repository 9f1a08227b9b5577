"""The stdlib HTTP/JSON serving surface of the gateway.

Same machinery as the obs :class:`~repro.obs.expo.MetricsServer` — a
``ThreadingHTTPServer`` on a daemon thread, handler class closed over
its providers — but speaking the query protocol:

==========================  ===========================================
route                       meaning
==========================  ===========================================
``GET /``                   endpoint directory
``GET /healthz``            deployment health; **503 when degraded**
                            (dead partitions / partial ticks) — the
                            body still carries the full document, and
                            queries keep answering
``GET /readyz``             200 once every tenant has published a tick
``GET /metrics``            Prometheus text of the **fleet** snapshot:
                            coordinator series plus every worker's
                            registry with a ``partition`` label (the
                            coordinator re-polls worker telemetry on
                            each scrape)
``GET /snapshot``           the merged ``repro-trace`` document (what
                            ``repro top --url`` diffs; 404 when
                            observability is off)
``GET /alerts``             the gateway alert engine's summary (marked
                            ``enabled: false`` when no engine)
``GET /tenants``            tenant directory with tick counters
``GET /query/range``        ``?tenant=&min_x=&min_y=&max_x=&max_y=``
``GET /query/knn``          ``?tenant=&x=&y=&k=``
``GET /analytics``          ``?tenant=`` — that tenant's analytics
                            summary (404 if analytics is off)
``GET /sessions``           ``?tenant=[&id=]`` — list, or one result
``POST /sessions``          open a standing query (JSON body)
``DELETE /sessions``        ``?tenant=&id=``
==========================  ===========================================

Handlers only read coordinator state (under its lock) — the ingest
loop never blocks on HTTP traffic longer than one lock hold.

When observability is on, every request is timed into the
``gateway.http_latency{endpoint}`` histogram family (the per-endpoint
SLO signal) and counted in ``gateway.http_requests{endpoint}``.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple, Type
from urllib.parse import parse_qs, urlparse

import repro.obs as obs
from repro.geometry import Point, Rect

from repro.gateway.coordinator import GatewayCoordinator, GatewayError


def _finite(values) -> list:
    """``values`` as floats; ValueError if any is NaN or infinite."""
    floats = [float(v) for v in values]
    if not all(math.isfinite(v) for v in floats):
        raise ValueError(f"not finite: {floats}")
    return floats


class _BadRequest(ValueError):
    """Maps to a 400 response."""


def _make_handler(
    coordinator: GatewayCoordinator,
) -> Type[BaseHTTPRequestHandler]:
    class GatewayRequestHandler(BaseHTTPRequestHandler):
        server_version = "repro-gateway/1"

        # -- plumbing --------------------------------------------------
        def _send_json(self, status: int, document: object) -> None:
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_text(self, status: int, body: str) -> None:
            data = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def _params(self) -> Dict[str, str]:
            query = parse_qs(urlparse(self.path).query)
            return {key: values[0] for key, values in query.items()}

        def _param(self, params: Dict[str, str], name: str) -> str:
            value = params.get(name)
            if value is None:
                raise _BadRequest(f"missing query parameter {name!r}")
            return value

        def _float(self, params: Dict[str, str], name: str) -> float:
            raw = self._param(params, name)
            try:
                value = float(raw)
            except ValueError:
                raise _BadRequest(f"parameter {name!r} is not a number: {raw!r}")
            if not math.isfinite(value):
                raise _BadRequest(f"parameter {name!r} is not finite: {raw!r}")
            return value

        def _tenant(self, params: Dict[str, str]) -> str:
            tenant_id = self._param(params, "tenant")
            if tenant_id not in coordinator.tenant_ids():
                raise KeyError(tenant_id)
            return tenant_id

        def _dispatch(self, handler: str, route: str) -> None:
            if obs.enabled():
                obs.add("gateway.http_requests", labels={"endpoint": route})
                with obs.timer(
                    "gateway.http_latency", labels={"endpoint": route}
                ):
                    self._dispatch_inner(handler)
            else:
                self._dispatch_inner(handler)

        def _dispatch_inner(self, handler: str) -> None:
            try:
                getattr(self, handler)()
            except _BadRequest as exc:
                self._send_json(400, {"error": str(exc)})
            except KeyError as exc:
                self._send_json(404, {"error": f"unknown tenant or id: {exc}"})
            except GatewayError as exc:
                self._send_json(404, {"error": str(exc)})
            except BrokenPipeError:  # pragma: no cover - client went away
                pass
            except Exception as exc:  # noqa: BLE001 - surfaced as a 500
                self._send_json(
                    500, {"error": f"{type(exc).__name__}: {exc}"}
                )

        # -- routes ----------------------------------------------------
        def do_GET(self) -> None:  # noqa: N802 - http.server API
            route = urlparse(self.path).path
            routes = {
                "/": "_get_root",
                "/healthz": "_get_healthz",
                "/readyz": "_get_readyz",
                "/metrics": "_get_metrics",
                "/snapshot": "_get_snapshot",
                "/alerts": "_get_alerts",
                "/tenants": "_get_tenants",
                "/query/range": "_get_range",
                "/query/knn": "_get_knn",
                "/analytics": "_get_analytics",
                "/sessions": "_get_sessions",
            }
            handler = routes.get(route)
            if handler is None:
                self._send_json(404, {"error": f"no route {route!r}"})
                return
            self._dispatch(handler, route)

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            route = urlparse(self.path).path
            if route != "/sessions":
                self._send_json(404, {"error": f"no route {route!r}"})
                return
            self._dispatch("_post_sessions", route)

        def do_DELETE(self) -> None:  # noqa: N802 - http.server API
            route = urlparse(self.path).path
            if route != "/sessions":
                self._send_json(404, {"error": f"no route {route!r}"})
                return
            self._dispatch("_delete_sessions", route)

        def _get_root(self) -> None:
            self._send_json(
                200,
                {
                    "service": "repro-gateway",
                    "endpoints": [
                        "/healthz",
                        "/readyz",
                        "/metrics",
                        "/snapshot",
                        "/alerts",
                        "/tenants",
                        "/query/range",
                        "/query/knn",
                        "/analytics",
                        "/sessions",
                    ],
                },
            )

        def _get_healthz(self) -> None:
            document = coordinator.health()
            status = 200 if document["status"] == "ok" else 503
            self._send_json(status, document)

        def _get_readyz(self) -> None:
            if coordinator.ready():
                self._send_json(200, {"ready": True})
            else:
                self._send_json(503, {"ready": False})

        def _get_metrics(self) -> None:
            from repro.obs.expo import render_prometheus

            if not obs.enabled():
                self._send_text(200, "# observability disabled\n")
                return
            coordinator.poll_telemetry(timeout=5.0)
            self._send_text(
                200, render_prometheus(coordinator.fleet_snapshot())
            )

        def _get_snapshot(self) -> None:
            if not obs.enabled():
                self._send_json(404, {"error": "observability disabled"})
                return
            coordinator.poll_telemetry(timeout=5.0)
            self._send_json(200, coordinator.fleet_snapshot())

        def _get_alerts(self) -> None:
            self._send_json(200, coordinator.alerts_summary())

        def _get_tenants(self) -> None:
            health = coordinator.health()
            tenants = []
            for tenant_id, spec in coordinator.tenants.items():
                record = dict(spec.to_dict())
                record.update(health["tenants"][tenant_id])  # type: ignore[index]
                tenants.append(record)
            self._send_json(200, {"tenants": tenants})

        def _get_range(self) -> None:
            params = self._params()
            tenant_id = self._tenant(params)
            corners = [
                self._float(params, name)
                for name in ("min_x", "min_y", "max_x", "max_y")
            ]
            try:
                window = Rect(*corners)
            except ValueError as exc:
                raise _BadRequest(str(exc))
            result = coordinator.query_range(tenant_id, window)
            snapshot = coordinator.latest_snapshot(tenant_id)
            self._send_json(
                200,
                {
                    "tenant": tenant_id,
                    "second": snapshot.second,
                    "query_id": result.query_id,
                    "probabilities": result.probabilities,
                },
            )

        def _get_knn(self) -> None:
            params = self._params()
            tenant_id = self._tenant(params)
            point = Point(self._float(params, "x"), self._float(params, "y"))
            k = int(self._float(params, "k"))
            if k < 1:
                raise _BadRequest("k must be >= 1")
            result = coordinator.query_knn(tenant_id, point, k)
            snapshot = coordinator.latest_snapshot(tenant_id)
            self._send_json(
                200,
                {
                    "tenant": tenant_id,
                    "second": snapshot.second,
                    "query_id": result.query_id,
                    "probabilities": result.probabilities,
                    "ranked": [
                        [object_id, probability]
                        for object_id, probability in result.ranked()
                    ],
                },
            )

        def _get_analytics(self) -> None:
            params = self._params()
            tenant_id = self._tenant(params)
            self._send_json(
                200,
                {
                    "tenant": tenant_id,
                    "summary": coordinator.analytics_summary(tenant_id),
                },
            )

        def _get_sessions(self) -> None:
            params = self._params()
            tenant_id = self._tenant(params)
            session_id = params.get("id")
            if session_id is None:
                self._send_json(
                    200,
                    {
                        "tenant": tenant_id,
                        "sessions": coordinator.sessions_info(tenant_id),
                    },
                )
                return
            result = coordinator.session_result(tenant_id, session_id)
            self._send_json(
                200,
                {
                    "tenant": tenant_id,
                    "session_id": session_id,
                    "result": result,
                },
            )

        def _post_sessions(self) -> None:
            length = int(self.headers.get("Content-Length", "0"))
            try:
                body = json.loads(self.rfile.read(length) or b"{}")
            except json.JSONDecodeError as exc:
                raise _BadRequest(f"invalid JSON body: {exc}")
            if not isinstance(body, dict):
                raise _BadRequest("body must be a JSON object")
            tenant_id = str(body.get("tenant", ""))
            if tenant_id not in coordinator.tenant_ids():
                raise KeyError(tenant_id or "<missing tenant>")
            kind = body.get("kind")
            session_id = body.get("session_id")
            if kind == "range":
                try:
                    window = Rect(*_finite(body["window"]))
                except (KeyError, TypeError, ValueError):
                    raise _BadRequest(
                        "range session needs window: [min_x, min_y, max_x, max_y]"
                        " (finite, min <= max)"
                    )
                opened = coordinator.subscribe_range(
                    tenant_id, window, session_id=session_id
                )
            elif kind == "knn":
                try:
                    x, y = _finite(body["point"])
                except (KeyError, TypeError, ValueError):
                    raise _BadRequest("knn session needs point: [x, y] (finite)")
                try:
                    k = int(body["k"])
                    if k < 1:
                        raise ValueError(k)
                except (KeyError, TypeError, ValueError, OverflowError):
                    raise _BadRequest("knn session needs k: an integer >= 1")
                opened = coordinator.subscribe_knn(
                    tenant_id, Point(x, y), k, session_id=session_id
                )
            else:
                raise _BadRequest("kind must be 'range' or 'knn'")
            self._send_json(
                201, {"tenant": tenant_id, "session_id": opened}
            )

        def _delete_sessions(self) -> None:
            params = self._params()
            tenant_id = self._tenant(params)
            session_id = self._param(params, "id")
            if not coordinator.unsubscribe(tenant_id, session_id):
                raise KeyError(session_id)
            self._send_json(
                200, {"tenant": tenant_id, "closed": session_id}
            )

        def log_message(self, format: str, *args: object) -> None:  # noqa: A002
            pass  # keep the serving loop's stdout clean

    return GatewayRequestHandler


class GatewayServer:
    """The gateway's HTTP listener on a daemon thread."""

    def __init__(
        self,
        coordinator: GatewayCoordinator,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _make_handler(coordinator))
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "GatewayServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-gateway-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
