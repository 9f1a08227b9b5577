"""Cross-backend contract of :mod:`repro.filters`.

Every registered backend — whatever its estimator — must honor the same
observable contract: posteriors are probability distributions over
anchors, states checkpoint and restore bit-exactly, and incompatible
state documents are refused loudly instead of mis-decoded.
"""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.filters import (
    DEFAULT_BACKEND,
    FACTORY,
    FilterStateError,
    available_backends,
    create_backend,
)
from repro.rng import filter_run_rng
from repro.service import (
    CheckpointCompatibilityError,
    ReplaySource,
    TrackingService,
    load_checkpoint,
    restore_from_file,
    restore_service,
    save_checkpoint,
)
from repro.sim import Simulation

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


def _rng_for(object_id, second):
    return filter_run_rng(FAST.seed, second, object_id)


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
        assert FACTORY.state_version_of(name) >= 1


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendContract:
    def test_posterior_is_a_distribution(self, name, world, backends):
        _, histories = world
        backend = backends[name]
        for object_id, history in histories.items():
            run = backend.run(history, 30, rng=_rng_for(object_id, 30))
            posterior = run.posterior()
            assert posterior, (name, object_id)
            assert all(p >= 0.0 for p in posterior.values())
            assert sum(posterior.values()) == pytest.approx(1.0)

    def test_state_round_trip_is_bit_exact(self, name, world, backends):
        _, histories = world
        backend = backends[name]
        object_id, history = next(iter(histories.items()))
        run = backend.run(history, 30, rng=_rng_for(object_id, 30))
        document = run.state().to_state()
        decoded = backend.state_from_dict(document)
        assert decoded.to_state() == document

    def test_restored_state_reproduces_posterior(self, name, world, backends):
        _, histories = world
        backend = backends[name]
        object_id, history = next(iter(histories.items()))
        run = backend.run(history, 30, rng=_rng_for(object_id, 30))
        decoded = backend.state_from_dict(run.state().to_state())
        restored = backend.run(
            history, 30, rng=_rng_for(object_id, 30), resume=(decoded, run.end_second)
        )
        assert restored.end_second == run.end_second
        assert restored.posterior() == run.posterior()

    def test_missing_state_field_raises_filter_state_error(
        self, name, world, backends
    ):
        _, histories = world
        backend = backends[name]
        object_id, history = next(iter(histories.items()))
        run = backend.run(history, 30, rng=_rng_for(object_id, 30))
        document = run.state().to_state()
        document.pop(next(iter(document)))
        with pytest.raises(FilterStateError):
            backend.state_from_dict(document)

    def test_state_version_check(self, name, backends):
        backend = backends[name]
        backend.check_state_version(backend.state_version)
        with pytest.raises(FilterStateError):
            backend.check_state_version(backend.state_version + 1)

    def test_empty_history_is_rejected(self, name, backends):
        from repro.collector.collector import ReadingHistory

        backend = backends[name]
        empty = ReadingHistory(object_id="ghost", runs=())
        with pytest.raises(ValueError, match="ghost"):
            backend.run(empty, 10)


class TestParticleEquivalence:
    """``--filter particle`` must be the pre-refactor filter, bit for bit."""

    def test_backend_run_matches_legacy_filter(self, world, backends):
        _, histories = world
        backend = backends["particle"]
        for object_id, history in histories.items():
            legacy = backend.filter.run(
                history, 30, rng=_rng_for(object_id, 30)
            )
            run = backend.run(history, 30, rng=_rng_for(object_id, 30))
            state = run.state()
            for fieldname in ("edge", "offset", "direction", "speed", "dwelling"):
                assert np.array_equal(
                    getattr(legacy.particles, fieldname),
                    getattr(state, fieldname),
                ), (object_id, fieldname)


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

    def test_v1_checkpoint_is_migrated(self, replay_readings, tmp_path):
        """Pre-backend checkpoints load as implicit particle state."""
        import json

        path = tmp_path / "ckpt.json"
        service = self._served(replay_readings, "particle")
        try:
            save_checkpoint(service, path)
        finally:
            service.close()
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        # Rewrite the file in the version-1 layout.
        state = document["state"]
        state.pop("filter")
        state["cache"] = {
            object_id: {
                "state_second": entry["state_second"],
                "device_generation": entry["device_generation"],
                "particles": entry["state"],
            }
            for object_id, entry in state["cache"]["entries"].items()
        }
        document["checkpoint_version"] = 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

        migrated = load_checkpoint(path)
        assert migrated["filter"] == {"backend": "particle", "state_version": 1}
        restored = restore_from_file(path)
        try:
            assert restored.executor.filter_backend.name == "particle"
            assert restored.ticks == 10
        finally:
            restored.close()

    def test_v1_migration_refused_onto_other_backend(
        self, replay_readings, tmp_path
    ):
        import json

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
        with pytest.raises(CheckpointCompatibilityError, match="symbolic"):
            restore_from_file(path, filter_backend="symbolic")
