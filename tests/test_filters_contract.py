"""Cross-backend contract of :mod:`repro.filters`.

Every backend — whatever its estimator — must honor the same
observable contract: posteriors are probability distributions over
anchors, a run resumed from a state reproduces it, and checkpoints of
another backend or draw scheme are refused loudly.
"""

import json

import numpy as np
import pytest

import repro.obs as obs
from repro.collector.collector import ReadingHistory
from repro.config import DEFAULT_CONFIG
from repro.filters import (
    DEFAULT_BACKEND,
    FilterRequest,
    available_backends,
    create_backend,
)
from repro.service import (
    CheckpointCompatibilityError,
    ReplaySource,
    TrackingService,
    load_checkpoint,
    restore_from_file,
    restore_service,
    save_checkpoint,
)
from repro.service.checkpoint import KEYED_DRAW_STATE_VERSIONS
from repro.sim import Simulation
from tests.test_keyed_draws import table_json

ALL_BACKENDS = ("particle", "symbolic")

FAST = DEFAULT_CONFIG.with_overrides(num_objects=6, seed=19)


@pytest.fixture(scope="module")
def world():
    """A small simulated world with real reading histories."""
    sim = Simulation(FAST, build_symbolic=False)
    sim.run_for(30)
    collector = sim.pf_engine.collector
    histories = {
        obj: collector.history(obj) for obj in sorted(collector.observed_objects())
    }
    assert histories, "simulation produced no observed objects"
    return sim, histories


@pytest.fixture(scope="module")
def backends(world):
    sim, _ = world
    return {
        name: create_backend(
            name, sim.graph, sim.anchor_index, sim.readers, FAST
        )
        for name in ALL_BACKENDS
    }


@pytest.fixture(scope="module")
def replay_readings():
    sim = Simulation(FAST, build_symbolic=False)
    readings = []
    for _ in range(20):
        readings.extend(sim.step())
    return readings


def _run(backend, object_id, history, resume=None):
    """One object's run at second 30, as a one-request ``run_many`` call."""
    request = FilterRequest(history, resume)
    return backend.run_many([request], 30, FAST.seed)[0]


def _posterior(backend, run):
    return backend.posteriors([run])[0]


class TestFactory:
    def test_all_backends_registered(self):
        assert available_backends() == ALL_BACKENDS

    def test_default_backend_is_particle(self):
        assert DEFAULT_BACKEND == "particle"

    def test_unknown_name_lists_known_backends(self, world):
        sim, _ = world
        with pytest.raises(ValueError, match="particle"):
            create_backend(
                "bogus", sim.graph, sim.anchor_index, sim.readers, FAST
            )

    def test_instance_passes_through(self, world, backends):
        sim, _ = world
        backend = backends["symbolic"]
        assert (
            create_backend(backend, sim.graph, sim.anchor_index, sim.readers, FAST)
            is backend
        )

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_state_version_is_positive(self, name):
        # The state version a version-2 or version-3 file must record.
        assert KEYED_DRAW_STATE_VERSIONS[name] >= 1


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendContract:
    def test_posterior_is_a_distribution(self, name, world, backends):
        _, histories = world
        backend = backends[name]
        for object_id, history in histories.items():
            posterior = _posterior(backend, _run(backend, object_id, history))
            assert posterior, (name, object_id)
            assert all(p >= 0.0 for p in posterior.values())
            assert sum(posterior.values()) == pytest.approx(1.0)

    def test_restored_state_reproduces_posterior(self, name, world, backends):
        _, histories = world
        backend = backends[name]
        object_id, history = next(iter(histories.items()))
        run = _run(backend, object_id, history)
        restored = _run(backend, object_id, history, resume=(run.state, run.end_second))
        assert restored.end_second == run.end_second
        assert _posterior(backend, restored) == _posterior(backend, run)

    def test_state_round_trip_is_bit_exact(self, name, replay_readings, tmp_path):
        """A checkpoint holds no belief: the restore's replay re-publishes it."""
        path = tmp_path / "ckpt.json"
        with TrackingService(FAST, filter_backend=name) as service:
            for batch in ReplaySource(replay_readings, max_seconds=10).batches():
                service.process_batch(batch)
            save_checkpoint(service, path)
            saved = [table_json(service.snapshot().table), json.dumps(service.state_dict())]
        with restore_from_file(path) as restored:
            assert [
                table_json(restored.snapshot().table), json.dumps(restored.state_dict())
            ] == saved

    def test_state_version_check(self, name, replay_readings):
        """A version-3 state resumes only at its backend's keyed-draw version."""
        with TrackingService(FAST, filter_backend=name) as service:
            for batch in ReplaySource(replay_readings, max_seconds=4).batches():
                service.process_batch(batch)
            state = service.state_dict()
        state["filter"]["state_version"] = KEYED_DRAW_STATE_VERSIONS[name]
        restore_service(state).close()
        state["filter"]["state_version"] += 1
        with pytest.raises(CheckpointCompatibilityError, match="version"):
            restore_service(state)

    def test_empty_history_is_rejected(self, name, backends):
        backend = backends[name]
        empty = ReadingHistory(object_id="ghost", runs=())
        with pytest.raises(ValueError, match="ghost"):
            backend.run_many([FilterRequest(empty)], 10)


class TestParticleEquivalence:
    """``--filter particle`` must be the pre-refactor filter, bit for bit."""

    def test_backend_run_matches_legacy_filter(self, world, backends):
        _, histories = world
        backend = backends["particle"]
        for object_id, history in histories.items():
            legacy = backend.filter.run(history, 30, seed=FAST.seed)
            state = _run(backend, object_id, history).state
            for fieldname in ("edge", "offset", "direction", "speed", "dwelling"):
                assert np.array_equal(
                    getattr(legacy.particles, fieldname),
                    getattr(state, fieldname),
                ), (object_id, fieldname)


class TestSymbolicBatch:
    """The symbolic backend's ``run_many`` is N one-object runs, counters too."""

    def test_batch_equals_one_request_calls(self, world, backends):
        _, histories = world
        backend = backends["symbolic"]
        requests = [FilterRequest(history) for history in histories.values()]
        batch = backend.run_many(requests, 30)
        alone = [backend.run_many([request], 30)[0] for request in requests]
        assert len(batch) == len(requests) > 1
        assert [run.end_second for run in batch] == [run.end_second for run in alone]
        assert [(run.state.history, run.state.now) for run in batch] == [
            (run.state.history, run.state.now) for run in alone
        ]
        assert backend.posteriors(batch) == [
            backend.posteriors([run])[0] for run in alone
        ]

    def test_one_tick_counts_each_filtered_object(self, replay_readings):
        batches = list(ReplaySource(replay_readings, max_seconds=12).batches())
        service = TrackingService(FAST, filter_backend="symbolic")
        try:
            for batch in batches[:-1]:
                service.process_batch(batch)
            obs.enable(fresh=True)
            try:
                service.process_batch(batches[-1])
                registry = obs.registry()
                runs = registry.counter("filter.runs").value
                backend_runs = registry.counter(
                    "filter.backend_runs", {"backend": "symbolic"}
                ).value
                objects_filtered = registry.counter("preprocess.objects_filtered").value
            finally:
                obs.disable()
            collector = service.collector
            filtered = [
                object_id
                for object_id in collector.observed_objects()
                if not collector.history(object_id).is_empty
            ]
        finally:
            service.close()
        assert len(filtered) > 1
        assert runs == backend_runs == objects_filtered == len(filtered)

    def test_a_symbolic_tick_builds_no_generators(self, replay_readings, monkeypatch):
        # The symbolic model is closed-form: a tick keys no draws at all.
        import repro.core.filter as core_filter

        built = []
        original = core_filter.object_words
        monkeypatch.setattr(
            core_filter, "object_words",
            lambda *args: built.append(args) or original(*args),
        )
        with TrackingService(FAST, filter_backend="symbolic") as service:
            for batch in ReplaySource(replay_readings, max_seconds=12).batches():
                service.process_batch(batch)
            assert service.snapshot().table.objects()
        assert built == []
        with TrackingService(FAST, filter_backend="particle") as service:
            for batch in ReplaySource(replay_readings, max_seconds=2).batches():
                service.process_batch(batch)
        assert built


class TestCheckpointCompatibility:
    def _served(self, readings, name, seconds=10):
        service = TrackingService(FAST, filter_backend=name)
        for batch in ReplaySource(readings, max_seconds=seconds).batches():
            service.process_batch(batch)
        return service

    @pytest.mark.parametrize("name", ["particle"])
    def test_round_trip_any_cacheable_backend(
        self, name, replay_readings, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        service = self._served(replay_readings, name)
        try:
            save_checkpoint(service, path)
        finally:
            service.close()
        restored = restore_from_file(path)
        try:
            assert restored.executor.filter_backend.name == name
            assert restored.ticks == 10
        finally:
            restored.close()

    def test_mismatched_backend_is_refused(self, replay_readings, tmp_path):
        path = tmp_path / "ckpt.json"
        service = self._served(replay_readings, "particle")
        try:
            save_checkpoint(service, path)
        finally:
            service.close()
        with pytest.raises(CheckpointCompatibilityError, match="particle"):
            restore_from_file(path, filter_backend="symbolic")

    def test_restore_state_refuses_foreign_backend(self, replay_readings):
        service = self._served(replay_readings, "particle")
        try:
            state = service.state_dict()
        finally:
            service.close()
        other = TrackingService(FAST, filter_backend="symbolic")
        try:
            with pytest.raises(CheckpointCompatibilityError, match="symbolic"):
                other.restore_state(state)
        finally:
            other.close()

    @pytest.mark.parametrize("recorded", ["kalman", "bogus"])
    def test_removed_or_unknown_backend_is_refused(self, replay_readings, recorded):
        service = self._served(replay_readings, "particle")
        try:
            state = service.state_dict()
        finally:
            service.close()
        state["filter"]["backend"] = recorded
        for asked in (None, "particle"):
            with pytest.raises(CheckpointCompatibilityError, match="does not have"):
                restore_service(state, filter_backend=asked)

    def test_mismatched_state_version_is_refused(self, replay_readings):
        service = self._served(replay_readings, "particle")
        try:
            state = service.state_dict()
        finally:
            service.close()
        state["filter"]["state_version"] = 99
        with pytest.raises(CheckpointCompatibilityError, match="version"):
            restore_service(state)

    def test_v1_checkpoint_is_refused(self, replay_readings, tmp_path):
        """Pre-backend checkpoints hold particle states of state version 1,
        stepped on per-tick generator streams: they are refused on load."""
        path = tmp_path / "ckpt.json"
        service = self._served(replay_readings, "particle")
        try:
            save_checkpoint(service, path)
        finally:
            service.close()
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        # Rewrite the file in the version-1 layout: no filter record.
        document["state"].pop("filter")
        document["checkpoint_version"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        with pytest.raises(CheckpointCompatibilityError, match="re-create the checkpoint"):
            load_checkpoint(path)
        with pytest.raises(CheckpointCompatibilityError, match="version 1"):
            restore_from_file(path)

    def test_v1_migration_refused_onto_other_backend(
        self, replay_readings, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        service = self._served(replay_readings, "particle")
        try:
            save_checkpoint(service, path)
        finally:
            service.close()
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        document["state"].pop("filter")
        document["checkpoint_version"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointCompatibilityError, match="re-create"):
            restore_from_file(path, filter_backend="symbolic")
