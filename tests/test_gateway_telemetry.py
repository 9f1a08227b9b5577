"""Fleet telemetry: federation, tracing, SLO alerts — and their inertness.

Two properties anchor this file:

* **Inertness** — flipping observability on changes no query answer,
  table, or session delta, at any partition count, on both transports
  (the obs switch must never touch the RNG or placement).
* **Determinism of the merged view** — two same-seed runs produce the
  same federated registry modulo wall-clock-valued fields (timer
  totals, span timestamps): same families, same labels, same counter
  values, same histogram counts.
"""

import json

import pytest

import repro.obs as obs
from repro.gateway import GatewayCoordinator, GatewayServer, TenantWorld, demo_tenants
from repro.obs.alerts import AlertEngine, gateway_rules
from repro.obs.chrometrace import chrome_trace_events
from repro.obs.dashboard import TopState, render_top
from repro.service import LiveSimSource
from repro.sim import Simulation

SECONDS = 6


def _specs():
    return demo_tenants(2, base_seed=23, num_objects=4, plan="small")


def _batches(spec, seconds=SECONDS):
    world = TenantWorld(spec)
    sim = Simulation(
        world.config, plan=world.plan, readers=world.readers,
        build_symbolic=False,
    )
    return list(LiveSimSource(sim, seconds).batches())


@pytest.fixture(scope="module")
def tenant_batches():
    return {spec.tenant_id: _batches(spec) for spec in _specs()}


@pytest.fixture(autouse=True)
def _obs_off():
    """Every test starts and ends with observability globally off."""
    obs.disable()
    yield
    obs.disable()


def _serve(tenant_batches, num_partitions, transport, observability):
    """One full run; returns (tables, deltas, coordinator-before-close)."""
    if observability:
        obs.enable(fresh=True)
    coordinator = GatewayCoordinator(
        _specs(),
        num_partitions=num_partitions,
        transport=transport,
        observability=observability,
        telemetry_interval=2,
    )
    deltas = {tid: [] for tid in tenant_batches}
    try:
        for spec in _specs():
            coordinator.subscribe_range(
                spec.tenant_id, TenantWorld(spec).plan.bounds, session_id="r0"
            )
        for step in range(SECONDS):
            for tid in tenant_batches:
                coordinator.submit_tick(tid, tenant_batches[tid][step])
            for _ in tenant_batches:
                tid, _second, tick_deltas = coordinator.collect_tick()
                deltas[tid].extend(
                    (d.query_id, d.second, d.entered, d.left, d.updated)
                    for d in tick_deltas
                )
        tables = {}
        for tid in tenant_batches:
            table = coordinator.latest_snapshot(tid).table
            tables[tid] = {
                obj: table.distribution_of(obj) for obj in sorted(table.objects())
            }
        return tables, deltas, coordinator
    except BaseException:
        coordinator.close()
        raise


def _run_and_close(tenant_batches, num_partitions, transport, observability):
    tables, deltas, coordinator = _serve(
        tenant_batches, num_partitions, transport, observability
    )
    coordinator.close()
    obs.disable()
    return tables, deltas


def _counter_view(snapshot):
    """(name, sorted labels, value) for every counter series."""
    return sorted(
        (
            series["name"],
            tuple(sorted(series.get("labels", {}).items())),
            series["value"],
        )
        for series in snapshot["counters"]
    )


def _histogram_view(snapshot):
    """(name, sorted labels, count): totals are wall-clock-valued."""
    return sorted(
        (
            series["name"],
            tuple(sorted(series.get("labels", {}).items())),
            series["count"],
        )
        for series in snapshot["histograms"]
    )


def _span_view(document):
    """(name, process, trace attr) multiset: timestamps are wall clock."""
    spans = document["trace"]["spans"]
    return sorted(
        (
            span["name"],
            span.get("process", 0),
            str((span.get("attrs") or {}).get("trace")),
        )
        for span in spans
    )


class TestInertness:
    """Telemetry on ≡ telemetry off, bit for bit."""

    @pytest.fixture(scope="class")
    def reference(self, tenant_batches):
        """Telemetry-off inline run at 1 partition."""
        return _run_and_close(tenant_batches, 1, "inline", False)

    @pytest.mark.parametrize("num_partitions", [1, 2, 4])
    def test_inline_observability_is_inert(
        self, tenant_batches, reference, num_partitions
    ):
        observed = _run_and_close(tenant_batches, num_partitions, "inline", True)
        assert observed == reference

    def test_process_observability_is_inert(self, tenant_batches, reference):
        observed = _run_and_close(tenant_batches, 2, "process", True)
        assert observed == reference


class TestFederation:
    def test_merged_registry_is_deterministic(self, tenant_batches):
        """Same seed twice → identical merged snapshots modulo wall clock."""
        views = []
        for _ in range(2):
            _tables, _deltas, coordinator = _serve(
                tenant_batches, 2, "process", True
            )
            try:
                polled = coordinator.poll_telemetry()
                assert polled == [0, 1]
                document = coordinator.fleet_snapshot()
                views.append(
                    (
                        _counter_view(document["metrics"]),
                        _histogram_view(document["metrics"]),
                        _span_view(document),
                    )
                )
            finally:
                coordinator.close()
                obs.disable()
        assert views[0] == views[1]

    #: Families produced only by the worker compute path, whose totals
    #: cannot depend on where the work ran. Session fan-out counters are
    #: excluded: delta non-emptiness is judged per partition slice in
    #: workers but against the merged table inline, so their attribution
    #: (not the query answers) legitimately differs between transports.
    COMPUTE_PREFIXES = ("cache.", "collector.", "filter.")

    def test_partition_labels_and_inline_totals_agree(self, tenant_batches):
        """Process-fleet compute counters, summed over partitions, match inline."""
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            coordinator.poll_telemetry()
            fleet = coordinator.fleet_snapshot()["metrics"]
        finally:
            coordinator.close()
            obs.disable()
        partitioned = {}
        for name, labels, value in _counter_view(fleet):
            labels = dict(labels)
            if "partition" in labels and name.startswith(self.COMPUTE_PREFIXES):
                partitioned[name] = partitioned.get(name, 0) + value
        assert partitioned, "no worker-originated partition-labeled counters"
        assert "collector.aggregated_readings" in partitioned

        _t, _d, coordinator = _serve(tenant_batches, 2, "inline", True)
        try:
            inline = coordinator.fleet_snapshot()["metrics"]
        finally:
            coordinator.close()
            obs.disable()
        inline_totals = {}
        for name, _labels, value in _counter_view(inline):
            inline_totals[name] = inline_totals.get(name, 0) + value
        for name, total in partitioned.items():
            assert inline_totals.get(name) == total, name

    def test_chrome_trace_spans_processes(self, tenant_batches):
        """One tick's trace id covers the gateway and both worker pids."""
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            coordinator.poll_telemetry()
            document = coordinator.fleet_snapshot()
        finally:
            coordinator.close()
            obs.disable()
        assert document["trace"]["processes"] == {
            "0": "gateway", "1": "partition-0", "2": "partition-1",
        }
        events = chrome_trace_events(document)
        names = {
            event["pid"]: event["args"]["name"]
            for event in events
            if event["name"] == "process_name"
        }
        assert names == {0: "gateway", 1: "partition-0", 2: "partition-1"}
        trace_id = "tenant-0/2"
        pids = {
            event["pid"]
            for event in events
            if event.get("args", {}).get("trace") == trace_id
        }
        assert pids == {0, 1, 2}

    def test_telemetry_op_disabled_worker_reports_empty(self, tenant_batches):
        """Workers spawned with telemetry off reply enabled=False, no data."""
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", False)
        try:
            assert coordinator.poll_telemetry() == []
            reply = coordinator.handles[0].call({"op": "telemetry"})
            assert reply["enabled"] is False
            assert reply["metrics"] == {
                "counters": [], "gauges": [], "histograms": [],
            }
            assert reply["spans"] == []
        finally:
            coordinator.close()


class TestUnits:
    def test_barrier_wait_is_a_timer_series(self, tenant_batches):
        """Barrier waits are elapsed seconds, so the series carries the timer mark."""
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            coordinator.poll_telemetry()
            metrics = coordinator.fleet_snapshot()["metrics"]
        finally:
            coordinator.close()
            obs.disable()
        waits = [
            series for series in metrics["histograms"]
            if series["name"] == "gateway.barrier_wait_seconds"
        ]
        assert sorted(series["labels"]["partition"] for series in waits) == ["0", "1"]
        assert all(series["timer"] is True for series in waits)


class TestSlo:
    def test_health_partition_detail(self, tenant_batches):
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            health = coordinator.health()
            assert health["ticks"] == SECONDS * len(_specs())
            assert health["last_second"] == SECONDS
            assert isinstance(health["last_tick_seconds"], float)
            assert len(health["workers"]) == 2
            for worker in health["workers"]:
                assert worker["alive"] is True
                assert worker["queue_depth"] == 0
                assert "sheds" not in worker
                assert worker["last_second"] == SECONDS
                assert worker["last_tick_age"] == 0
        finally:
            coordinator.close()
            obs.disable()

    def test_slo_record_and_alerts(self, tenant_batches):
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            coordinator.enable_alerts()
            summary = coordinator.alerts_summary()
            assert summary["enabled"] is True
            record = coordinator.last_slo()
            assert record is not None
            slo = record["gateway"]
            assert slo["partitions"] == 2
            assert slo["missing_partitions"] == 0
            # Retired with the shed policy; kept at 0 for its readers.
            assert slo["sheds"] == 0
            assert slo["barrier_wait_max"] >= 0.0
            assert slo["worker_ess_collapses"] == 0
            # Worker piggybacks attribute the tick's ESS exactly.
            assert slo["worker_ess_mean"] > 0.0
        finally:
            coordinator.close()
            obs.disable()

    def test_alerts_summary_without_engine(self, tenant_batches):
        _t, _d, coordinator = _serve(tenant_batches, 1, "inline", False)
        try:
            summary = coordinator.alerts_summary()
            assert summary["enabled"] is False
            assert summary["active_count"] == 0
        finally:
            coordinator.close()

    def test_gateway_rules_fire_on_synthetic_records(self):
        engine = AlertEngine(gateway_rules())
        quiet = {
            "gateway": {
                "straggler_ratio": 1.0,
                "barrier_wait_max": 0.01,
                "missing_partitions": 0,
                "worker_ess_collapses": 0,
            }
        }
        for tick in range(5):
            engine.observe_epoch(dict(quiet, tick=tick))
        assert engine.active() == []
        bad = {
            "gateway": {
                "straggler_ratio": 9.0,
                "barrier_wait_max": 0.01,
                "missing_partitions": 1,
                "worker_ess_collapses": 2,
            }
        }
        for tick in range(5, 9):
            engine.observe_epoch(dict(bad, tick=tick))
        firing = {alert["rule"] for alert in engine.active()}
        assert "partition_straggler" in firing
        assert "partition_dead" in firing
        assert "worker_ess_collapse" in firing
        assert [rule.name for rule in gateway_rules()] == [
            "partition_straggler",
            "barrier_stall",
            "partition_dead",
            "worker_ess_collapse",
        ]


class TestHttpSurface:
    def test_metrics_snapshot_alerts_endpoints(self, tenant_batches):
        import urllib.request

        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        coordinator.enable_alerts()
        try:
            with GatewayServer(coordinator) as server:
                with urllib.request.urlopen(
                    server.url + "/metrics", timeout=10
                ) as response:
                    body = response.read().decode("utf-8")
                assert 'partition="0"' in body
                assert 'partition="1"' in body
                assert "repro_collector_aggregated_readings" in body
                # The scrape itself is instrumented per endpoint.
                with urllib.request.urlopen(
                    server.url + "/metrics", timeout=10
                ) as response:
                    body = response.read().decode("utf-8")
                assert "repro_gateway_http_requests" in body
                assert 'endpoint="/metrics"' in body
                assert "repro_gateway_http_latency" in body

                with urllib.request.urlopen(
                    server.url + "/snapshot", timeout=10
                ) as response:
                    document = json.load(response)
                assert document["trace"]["processes"]["1"] == "partition-0"

                with urllib.request.urlopen(
                    server.url + "/alerts", timeout=10
                ) as response:
                    summary = json.load(response)
                assert summary["enabled"] is True
                assert summary["format"] == "repro-alert-events"
        finally:
            coordinator.close()
            obs.disable()

    def test_snapshot_404_when_disabled(self, tenant_batches):
        import urllib.error
        import urllib.request

        _t, _d, coordinator = _serve(tenant_batches, 1, "inline", False)
        try:
            with GatewayServer(coordinator) as server:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(server.url + "/snapshot", timeout=10)
                excinfo.value.close()
                assert excinfo.value.code == 404
        finally:
            coordinator.close()


class TestDashboard:
    def test_top_renders_gateway_panel(self, tenant_batches):
        _t, _d, coordinator = _serve(tenant_batches, 2, "process", True)
        try:
            health = coordinator.health()
        finally:
            coordinator.close()
            obs.disable()
        state = TopState()
        state.health = health
        frame = render_top(state)
        assert "gateway  partitions=2" in frame
        assert "p0  alive" in frame
        assert "p1  alive" in frame
        assert "tenants  tenant-0:6t  tenant-1:6t" in frame
