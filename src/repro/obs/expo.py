"""Metrics exposition: Prometheus text format and the scrape endpoint.

Two pieces, both stdlib-only:

* :func:`render_prometheus` — renders one canonical snapshot dict (the
  ``repro-trace`` format built by :mod:`repro.obs.report`) as Prometheus
  text exposition format 0.0.4. Counters become ``repro_<name>_total``,
  gauges plain gauges, histograms summaries (``{quantile="..."}`` series
  plus ``_sum``/``_count``), and a capped histogram additionally exports
  its ``_dropped_samples`` count so scraped quantiles are honestly
  labeled as estimates. Instrument label sets pass through natively.
* :class:`MetricsServer` — a background ``http.server`` thread (off by
  default; ``repro serve --metrics-port N``) serving ``GET /metrics``
  from a snapshot provider, plus ``/healthz`` and ``/readyz`` JSON from
  caller-supplied providers (epoch lag, queue depth, checkpoint age,
  filter backend — see ``EpochScheduler.health``).

The server binds loopback by default and never touches the pipeline:
providers read already-published registry state, so a scrape cannot
perturb results (the serve determinism test covers exactly this).
"""

from __future__ import annotations

import json
import platform
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Mapping, Optional, Tuple

#: Prometheus content type for text exposition format 0.0.4.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every exported metric name carries this prefix.
METRIC_PREFIX = "repro"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

SnapshotProvider = Callable[[], Dict[str, object]]
HealthProvider = Callable[[], Dict[str, object]]
AlertsProvider = Callable[[], Dict[str, object]]
AnalyticsProvider = Callable[[], Dict[str, object]]


def build_info() -> Dict[str, str]:
    """Identify the running build: package version + Python version.

    Exported as the standard info-gauge pattern
    (``repro_build_info{version,python} 1``) and embedded in the
    ``/healthz`` payload so scrapes and probes can tell which build is
    answering.
    """
    from repro import __version__

    return {"version": __version__, "python": platform.python_version()}


def metric_name(name: str, suffix: str = "") -> str:
    """``cache.hits`` → ``repro_cache_hits`` (plus an optional suffix).

    The ``repro_`` prefix keeps the result inside the exposition name
    grammar even when the instrument name starts with a digit.
    """
    flat = _NAME_OK.sub("_", name.replace(".", "_").replace("-", "_"))
    return f"{METRIC_PREFIX}_{flat}{suffix}"


def escape_label_value(value: str) -> str:
    """Backslash-escape a label value per the exposition grammar."""
    return (
        value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')
    )


def _label_text(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{key}="{escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + parts + "}"


def _merged(labels: Mapping[str, str], **extra: str) -> Dict[str, str]:
    merged = {str(k): str(v) for k, v in labels.items()}
    merged.update(extra)
    return merged


def _num(value: object) -> str:
    if value is None:
        return "NaN"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) else str(value)
    return "NaN"


def _item_labels(item: Mapping[str, object]) -> Dict[str, str]:
    labels = item.get("labels")
    if isinstance(labels, dict):
        return {str(k): str(v) for k, v in labels.items()}
    return {}


def render_prometheus(snapshot: Mapping[str, object]) -> str:
    """Render one ``repro-trace`` snapshot as Prometheus text format.

    Families are emitted name-sorted, one ``# TYPE`` line per family,
    every series of a family (one per label set) grouped under it.
    """
    metrics = snapshot.get("metrics")
    if not isinstance(metrics, dict):
        metrics = {}
    lines: List[str] = []

    families: Dict[Tuple[str, str], List[Mapping[str, object]]] = {}
    for kind in ("counters", "gauges", "histograms"):
        entries = metrics.get(kind, [])
        if not isinstance(entries, list):
            continue
        for item in entries:
            families.setdefault((str(item["name"]), kind), []).append(item)

    # Prefer the build recorded in the snapshot itself (set at trace
    # write time), so `repro stats --prom` on a recorded trace reports
    # the *producing* build, not whichever build renders it. Older
    # traces without the key fall back to the live build.
    recorded = snapshot.get("build")
    info = (
        {str(k): str(v) for k, v in recorded.items()}
        if isinstance(recorded, Mapping)
        else build_info()
    )
    lines.append("# TYPE repro_build_info gauge")
    lines.append(f"repro_build_info{_label_text(info)} 1")

    for (name, kind), items in sorted(families.items()):
        if kind == "counters":
            family = metric_name(name, "_total")
            lines.append(f"# TYPE {family} counter")
            for item in items:
                labels = _label_text(_item_labels(item))
                lines.append(f"{family}{labels} {_num(item.get('value'))}")
        elif kind == "gauges":
            family = metric_name(name)
            lines.append(f"# TYPE {family} gauge")
            for item in items:
                labels = _label_text(_item_labels(item))
                lines.append(f"{family}{labels} {_num(item.get('value'))}")
        else:
            family = metric_name(name)
            lines.append(f"# TYPE {family} summary")
            dropped_total = 0
            for item in items:
                labels = _item_labels(item)
                for q_key, q_value in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
                    quantiled = _label_text(_merged(labels, quantile=q_value))
                    lines.append(f"{family}{quantiled} {_num(item.get(q_key))}")
                plain = _label_text(labels)
                lines.append(f"{family}_sum{plain} {_num(item.get('total'))}")
                lines.append(f"{family}_count{plain} {_num(item.get('count'))}")
                dropped_total += int(item.get("dropped_samples") or 0)
            if dropped_total:
                drop_family = metric_name(name, "_dropped_samples_total")
                lines.append(f"# TYPE {drop_family} counter")
                for item in items:
                    plain = _label_text(_item_labels(item))
                    lines.append(
                        f"{drop_family}{plain} "
                        f"{_num(item.get('dropped_samples'))}"
                    )

    return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# HTTP exposition
# ----------------------------------------------------------------------
class MetricsServer:
    """A background scrape endpoint over stdlib ``http.server``.

    Routes:

    * ``GET /metrics`` — Prometheus text of ``snapshot_provider()``;
    * ``GET /healthz`` — ``health_provider()`` as JSON (plus a ``build``
      key from :func:`build_info`); HTTP 200 when its ``"status"`` field
      is ``"ok"`` (or absent), 503 otherwise;
    * ``GET /readyz`` — ``{"ready": bool}`` from ``ready_provider()``;
      200 when ready, 503 before the first published tick;
    * ``GET /snapshot`` — the raw snapshot dict as JSON (what the
      ``repro top`` dashboard polls for per-interval deltas);
    * ``GET /alerts`` — ``alerts_provider()`` as JSON (the alert-engine
      summary); 404 when no alert engine is wired in;
    * ``GET /analytics`` — ``analytics_provider()`` as JSON (the
      analytics engine's live summary: occupancy, flows, dwell, top
      regions); 404 when no analytics engine is attached.

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    port. The server runs daemonized and is stopped with :meth:`stop`
    (idempotent). Provider exceptions surface as HTTP 500 with the error
    text, never as a crashed serve loop.
    """

    def __init__(
        self,
        snapshot_provider: SnapshotProvider,
        health_provider: Optional[HealthProvider] = None,
        ready_provider: Optional[Callable[[], bool]] = None,
        alerts_provider: Optional[AlertsProvider] = None,
        analytics_provider: Optional[AnalyticsProvider] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._snapshot_provider = snapshot_provider
        self._health_provider = health_provider
        self._ready_provider = ready_provider
        self._alerts_provider = alerts_provider
        self._analytics_provider = analytics_provider
        self._host = host
        self._requested_port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    @property
    def port(self) -> Optional[int]:
        """The bound port, or None before :meth:`start`."""
        with self._lock:
            return None if self._server is None else self._server.server_address[1]

    def url(self, path: str = "/metrics") -> str:
        """The endpoint URL for ``path`` (server must be started)."""
        port = self.port
        if port is None:
            raise RuntimeError("metrics server is not running")
        return f"http://{self._host}:{port}{path}"

    def start(self) -> int:
        """Bind and serve on a daemon thread; returns the bound port."""
        with self._lock:
            if self._server is not None:
                return self._server.server_address[1]
            handler = _make_handler(
                self._snapshot_provider,
                self._health_provider,
                self._ready_provider,
                self._alerts_provider,
                self._analytics_provider,
            )
            self._server = ThreadingHTTPServer(
                (self._host, self._requested_port), handler
            )
            self._server.daemon_threads = True
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-http",
                daemon=True,
            )
            self._thread.start()
            return self._server.server_address[1]

    def stop(self) -> None:
        """Shut the endpoint down (idempotent)."""
        with self._lock:
            server, thread = self._server, self._thread
            self._server, self._thread = None, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def _make_handler(
    snapshot_provider: SnapshotProvider,
    health_provider: Optional[HealthProvider],
    ready_provider: Optional[Callable[[], bool]],
    alerts_provider: Optional[AlertsProvider] = None,
    analytics_provider: Optional[AnalyticsProvider] = None,
) -> type:
    """Build the request-handler class closed over the providers."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-metrics"

        def log_message(self, format: str, *args: object) -> None:
            # Scrapes are high-frequency; stderr chatter is not telemetry.
            return None

        def _send(self, status: int, content_type: str, body: bytes) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, status: int, payload: Dict[str, object]) -> None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
            self._send(status, "application/json; charset=utf-8", body)

        def do_GET(self) -> None:  # noqa: N802 - http.server contract
            path = self.path.split("?", 1)[0]
            try:
                if path == "/metrics":
                    text = render_prometheus(snapshot_provider())
                    self._send(
                        200, PROMETHEUS_CONTENT_TYPE, text.encode("utf-8")
                    )
                elif path == "/healthz":
                    health: Dict[str, object] = (
                        dict(health_provider()) if health_provider else {}
                    )
                    health.setdefault("status", "ok")
                    health.setdefault("build", build_info())
                    status = 200 if health["status"] == "ok" else 503
                    self._send_json(status, health)
                elif path == "/readyz":
                    ready = bool(ready_provider()) if ready_provider else True
                    self._send_json(
                        200 if ready else 503, {"ready": ready}
                    )
                elif path == "/snapshot":
                    self._send_json(200, dict(snapshot_provider()))
                elif path == "/alerts":
                    if alerts_provider is None:
                        self._send_json(
                            404, {"error": "no alert engine configured"}
                        )
                    else:
                        self._send_json(200, dict(alerts_provider()))
                elif path == "/analytics":
                    if analytics_provider is None:
                        self._send_json(
                            404, {"error": "no analytics engine attached"}
                        )
                    else:
                        self._send_json(200, dict(analytics_provider()))
                else:
                    self._send_json(404, {"error": f"no route {path}"})
            except Exception as exc:  # pragma: no cover - provider failure
                self._send_json(500, {"error": str(exc)})

    return Handler
