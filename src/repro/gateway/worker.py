"""The partition worker: one tracking slice per tenant, message-driven.

A worker owns *its ring slice* of every tenant's objects and runs one
:class:`~repro.service.tracking.TrackingService` per tenant over that
slice; the partitions are the system's only scale-out path. The
gateway talks to workers through a tiny op-code protocol of picklable
dicts:

=========  ===========================================================
op         meaning
=========  ===========================================================
tick       ingest one tenant-second of readings, filter, reply with
           the slice's snapshot (``op: snapshot``)
state      reply with every tenant service's full ``state_dict``
restore    restore every tenant service from checkpoint slices
ping       liveness probe; replies per-tenant tick counters
telemetry  reply with this worker's metric registry snapshot plus the
           spans recorded since the previous telemetry fetch
stop       clean shutdown (reply ``op: bye``, then exit)
=========  ===========================================================

Telemetry rides the same FIFO pipe as ticks: metrics are cumulative
(each fetch re-serializes the registry), spans are drained
incrementally (each fetch ships only spans recorded since the last
one). A ``tick`` message may carry a ``trace`` context string stamped
by the coordinator; when observability is on the worker wraps its
tick in a ``gateway.worker_tick`` span tagged with that context, which
is how a merged Chrome trace stitches one tick across processes.

Determinism: filter randomness is derived from
``(seed, second, object_id)``, and a worker ticks *every* second of its
tenants (even with an empty slice of readings — previously seen objects
must keep filtering), so worker output is bit-identical to the same
objects tracked in a single process. The gateway's fan-in relies on
exactly this.

:class:`PartitionWorkerCore` is transport-agnostic (a plain
message-in/reply-out object), which lets the inline transport and the
tests drive it without any process machinery; :func:`worker_main` is
the forked child's receive loop around it.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import repro.obs as obs
from repro.rfid.readings import RawReading
from repro.service.ingest import ReadingBatch
from repro.service.tracking import TrackingService

from repro.gateway.tenants import TenantSpec, TenantWorld

#: Shape of an empty registry snapshot (telemetry reply when obs is off).
EMPTY_METRICS: Dict[str, List[dict]] = {
    "counters": [],
    "gauges": [],
    "histograms": [],
}


def encode_readings(readings: Sequence[RawReading]) -> List[dict]:
    """Readings as picklable primitive dicts (the wire shape)."""
    return [
        {"time": reading.time, "tag_id": reading.tag_id, "reader_id": reading.reader_id}
        for reading in readings
    ]


def decode_readings(records: Sequence[Mapping[str, object]]) -> Tuple[RawReading, ...]:
    """Inverse of :func:`encode_readings`."""
    return tuple(
        RawReading(
            time=float(record["time"]),  # type: ignore[arg-type]
            tag_id=str(record["tag_id"]),
            reader_id=str(record["reader_id"]),
        )
        for record in records
    )


class WorkerProtocolError(RuntimeError):
    """A message the worker cannot interpret."""


class PartitionWorkerCore:
    """One partition's tenant services plus the op-code dispatch."""

    def __init__(
        self,
        index: int,
        specs: Sequence[TenantSpec],
        observability: bool = False,
        private_registry: bool = False,
    ) -> None:
        self.index = index
        self.observability = bool(observability)
        #: True only in a forked child, where this core is the sole
        #: writer of the process registry — per-tick accuracy deltas
        #: (and the telemetry op's cumulative snapshot) are attributable
        #: to this partition alone. Inline cores share the gateway's
        #: registry, so attribution happens coordinator-side instead.
        self.private_registry = bool(private_registry)
        self._spans_sent = 0
        self._ess_count = 0
        self._ess_total = 0.0
        self._ess_collapses = 0
        self.services: Dict[str, TrackingService] = {}
        for spec in specs:
            world = TenantWorld(spec, observability=observability)
            self.services[spec.tenant_id] = TrackingService(
                world.config,
                plan=world.plan,
                readers=world.readers,
                use_cache=True,
                seed=spec.seed,
                filter_backend=spec.filter_backend,
            )

    # ------------------------------------------------------------------
    def handle(self, message: Mapping[str, object]) -> dict:
        """Dispatch one protocol message; always returns a reply dict."""
        op = message.get("op")
        if op == "tick":
            return self._tick(message)
        if op == "state":
            return {
                "op": "state",
                "partition": self.index,
                "tenants": {
                    tenant_id: service.state_dict()
                    for tenant_id, service in self.services.items()
                },
            }
        if op == "restore":
            states = message["tenants"]
            assert isinstance(states, dict)
            for tenant_id, state in states.items():
                self._service(tenant_id).restore_state(state)
            return {"op": "ok", "partition": self.index}
        if op == "ping":
            return {
                "op": "pong",
                "partition": self.index,
                "tenants": {
                    tenant_id: {
                        "ticks": service.ticks,
                        "last_second": service.last_second,
                    }
                    for tenant_id, service in self.services.items()
                },
            }
        if op == "telemetry":
            return self._telemetry()
        if op == "stop":
            return {"op": "bye", "partition": self.index}
        raise WorkerProtocolError(f"unknown op {op!r}")

    def _telemetry(self) -> dict:
        """Cumulative metrics plus the spans since the last fetch."""
        reply: dict = {
            "op": "telemetry",
            "partition": self.index,
            "enabled": obs.enabled(),
        }
        if not obs.enabled():
            reply["metrics"] = {key: [] for key in EMPTY_METRICS}
            reply["spans"] = []
            return reply
        reply["metrics"] = obs.registry().snapshot()
        spans = obs.tracer().snapshot()["spans"]
        assert isinstance(spans, list)
        reply["spans"] = spans[self._spans_sent:]
        self._spans_sent = len(spans)
        return reply

    def _service(self, tenant_id: object) -> TrackingService:
        service = self.services.get(str(tenant_id))
        if service is None:
            raise WorkerProtocolError(
                f"partition {self.index} hosts no tenant {tenant_id!r}"
            )
        return service

    def _tick(self, message: Mapping[str, object]) -> dict:
        tenant_id = str(message["tenant"])
        second = int(message["second"])  # type: ignore[arg-type]
        service = self._service(tenant_id)
        readings = decode_readings(message["readings"])  # type: ignore[arg-type]
        batch = ReadingBatch(second=second, readings=readings)
        trace = message.get("trace")
        if obs.enabled():
            attrs: Dict[str, object] = {
                "tenant": tenant_id,
                "second": second,
                "partition": self.index,
            }
            if trace is not None:
                attrs["trace"] = str(trace)
            with obs.span("gateway.worker_tick", **attrs):
                service.process_batch(batch)
        else:
            service.process_batch(batch)
        snapshot = service.snapshot()
        table = snapshot.table
        reply: dict = {
            "op": "snapshot",
            "partition": self.index,
            "tenant": tenant_id,
            "second": second,
            "entries": {
                object_id: dict(table.distribution_of(object_id))
                for object_id in sorted(table.objects())
            },
            "candidates": sorted(snapshot.candidates),
        }
        if self.private_registry and obs.enabled():
            reply["obs"] = self._tick_obs()
        return reply

    def _tick_obs(self) -> dict:
        """Accuracy-proxy deltas attributable to the tick just run.

        Only meaningful with a private registry (forked child): the
        diff of cumulative ESS statistics between two consecutive ticks
        is then exactly the just-processed tick's contribution. The
        values are derived from deterministic filter state, so the
        reply stays bit-identical across same-seed runs.
        """
        registry = obs.registry()
        count = 0
        total = 0.0
        for series in registry.series_of("filter.ess"):
            if series.get("type") == "histogram":
                count += int(series.get("count", 0))  # type: ignore[arg-type]
                total += float(series.get("total", 0.0))  # type: ignore[arg-type]
        collapses = registry.counter_total("filter.ess_collapses")
        delta_count = count - self._ess_count
        delta_total = total - self._ess_total
        delta_collapses = collapses - self._ess_collapses
        self._ess_count = count
        self._ess_total = total
        self._ess_collapses = collapses
        mean: Optional[float] = (
            delta_total / delta_count if delta_count > 0 else None
        )
        return {"ess_mean": mean, "ess_collapses": delta_collapses}

    # ------------------------------------------------------------------
    def close(self) -> None:
        for service in self.services.values():
            service.close()


def worker_main(
    conn: object,
    index: int,
    spec_records: Sequence[dict],
    observability: bool = False,
) -> None:
    """Forked child entry point: serve protocol messages until EOF/stop.

    Protocol errors are reported as ``op: error`` replies rather than
    killing the worker — one bad message must not take a partition (and
    its tenants' filter state) down with it.

    The fork inherits the parent's obs switch and registry contents;
    both are reset here so the child's registry holds only this
    partition's series (that is what makes the ``partition`` label of
    the federated fleet snapshot truthful).
    """
    if observability:
        obs.enable(fresh=True)
    else:
        obs.disable()
    specs = [TenantSpec.from_dict(record) for record in spec_records]
    core = PartitionWorkerCore(
        index, specs, observability=observability, private_registry=True
    )
    try:
        while True:
            try:
                message = conn.recv()  # type: ignore[attr-defined]
            except (EOFError, OSError):
                break
            try:
                reply = core.handle(message)
            except Exception as exc:  # noqa: BLE001 - reported to the gateway
                reply = {
                    "op": "error",
                    "partition": index,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            try:
                conn.send(reply)  # type: ignore[attr-defined]
            except (BrokenPipeError, OSError):
                break
            if reply.get("op") == "bye":
                break
    finally:
        core.close()
        try:
            conn.close()  # type: ignore[attr-defined]
        except OSError:  # pragma: no cover - already gone
            pass
