"""Checkpoint/restore: warm restart must be invisible in the output."""

import json

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.core.particles import ParticleSet
from repro.geometry import Point, Rect
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

FAST = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=11)

#: The config fields (and values) of the removed graph-filter backend, as
#: every checkpoint written before its removal carries them.
PARENT_CONFIG_FIELDS = {
    "kalman_max_hypotheses": 12,
    "kalman_accel_std": 0.3,
    "kalman_merge_distance": 0.5,
}


def with_parent_config_fields(config):
    """``config`` laid out as the parent wrote it: the fields after ``num_readers``."""
    out = {}
    for key, value in config.items():
        out[key] = value
        if key == "num_readers":
            out.update(PARENT_CONFIG_FIELDS)
    assert len(out) == len(config) + len(PARENT_CONFIG_FIELDS)
    return out


@pytest.fixture(scope="module")
def replay_readings():
    sim = Simulation(FAST, build_symbolic=False)
    readings = []
    for _ in range(24):
        readings.extend(sim.step())
    return readings


def _new_service():
    service = TrackingService(FAST)
    service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
    service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
    return service


def _delta_key(delta):
    return (delta.query_id, delta.second, delta.entered, delta.left, delta.updated)


def _run(service, readings, start_after=None, max_seconds=None):
    deltas = []
    source = ReplaySource(readings, start_after=start_after, max_seconds=max_seconds)
    for batch in source.batches():
        deltas.extend(service.process_batch(batch))
    return deltas


class TestRoundTrips:
    def test_particle_set_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(4)
        particles = ParticleSet(
            edge=rng.integers(0, 50, 16),
            offset=rng.uniform(0, 10, 16),
            direction=np.where(rng.random(16) < 0.5, 1, -1).astype(np.int8),
            speed=rng.uniform(0.5, 1.5, 16),
            dwelling=rng.random(16) < 0.3,
            weight=rng.dirichlet(np.ones(16)),
        )
        restored = ParticleSet.from_state(
            json.loads(json.dumps(particles.to_state()))
        )
        for name in ("edge", "offset", "direction", "speed", "dwelling", "weight"):
            original = getattr(particles, name)
            copy = getattr(restored, name)
            assert original.dtype == copy.dtype
            assert np.array_equal(original, copy)

    def test_collector_state_round_trip(self, replay_readings):
        service = _new_service()
        try:
            _run(service, replay_readings, max_seconds=10)
            state = json.loads(json.dumps(service.collector.state_dict()))
            fresh = _new_service()
            try:
                fresh.collector.restore_state(state)
                assert fresh.collector.state_dict() == service.collector.state_dict()
                for obj in service.collector.observed_objects():
                    assert (
                        fresh.collector.history(obj).runs
                        == service.collector.history(obj).runs
                    )
            finally:
                fresh.close()
        finally:
            service.close()


class TestCheckpointFile:
    def test_save_then_load(self, tmp_path, replay_readings):
        service = _new_service()
        try:
            _run(service, replay_readings, max_seconds=5)
            path = tmp_path / "ckpt.json"
            save_checkpoint(service, path)
            state = load_checkpoint(path)
            assert state["last_second"] == 5
            assert state["ticks"] == 5
            assert len(state["sessions"]["sessions"]) == 2
        finally:
            service.close()

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "repro-trace"}')
        with pytest.raises(ValueError, match="not a repro-service-checkpoint"):
            load_checkpoint(path)

    def test_load_rejects_future_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            '{"format": "repro-service-checkpoint", '
            '"checkpoint_version": 99, "state": {}}'
        )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)


class TestResumeEquivalence:
    def test_restore_resume_matches_uninterrupted(self, tmp_path, replay_readings):
        """Checkpoint at tick 12, restore, resume: the delta stream and
        final state must match an uninterrupted 24-tick run exactly."""
        uninterrupted = _new_service()
        interrupted = _new_service()
        try:
            full_deltas = _run(uninterrupted, replay_readings)
            _run(interrupted, replay_readings, max_seconds=12)
            path = tmp_path / "ckpt.json"
            save_checkpoint(interrupted, path)
        finally:
            interrupted.close()

        resumed = restore_from_file(path)
        try:
            assert resumed.last_second == 12
            resumed_deltas = _run(
                resumed, replay_readings, start_after=resumed.last_second
            )
            tail = [_delta_key(d) for d in full_deltas if d.second > 12]
            assert [_delta_key(d) for d in resumed_deltas] == tail

            table_full = uninterrupted.snapshot().table
            table_resumed = resumed.snapshot().table
            assert sorted(table_full.objects()) == sorted(table_resumed.objects())
            for obj in table_full.objects():
                assert table_full.distribution_of(obj) == table_resumed.distribution_of(obj)
            # Final particle states bit-for-bit.
            assert (
                uninterrupted.executor.cache.state_dict()
                == resumed.executor.cache.state_dict()
            )
        finally:
            uninterrupted.close()
            resumed.close()

    def test_restore_keeps_sessions_and_baseline(self, tmp_path, replay_readings):
        service = _new_service()
        try:
            _run(service, replay_readings, max_seconds=8)
            baseline = {
                sid: service.sessions.current_result(sid) for sid in ("r0", "k0")
            }
            path = tmp_path / "ckpt.json"
            save_checkpoint(service, path)
        finally:
            service.close()

        restored = restore_service(load_checkpoint(path))
        try:
            subs = {s.session_id for s in restored.sessions.subscriptions()}
            assert subs == {"r0", "k0"}
            for sid in ("r0", "k0"):
                assert restored.sessions.current_result(sid) == baseline[sid]
        finally:
            restored.close()


class TestRetiredConfigKeys:
    """Checkpoints written before the graph-filter backend was removed."""

    def _checkpoint_at(self, tmp_path, replay_readings, cut):
        service = _new_service()
        try:
            _run(service, replay_readings, max_seconds=cut)
            path = tmp_path / "ckpt.json"
            save_checkpoint(service, path)
        finally:
            service.close()
        return path

    def test_parent_checkpoint_resumes_like_an_uninterrupted_run(
        self, tmp_path, replay_readings
    ):
        path = self._checkpoint_at(tmp_path, replay_readings, 12)
        document = json.loads(path.read_text())
        document["state"]["config"] = with_parent_config_fields(
            document["state"]["config"]
        )
        path.write_text(json.dumps(document))

        uninterrupted = _new_service()
        resumed = restore_from_file(path)
        try:
            full = _run(uninterrupted, replay_readings)
            tail = [_delta_key(d) for d in full if d.second > 12]
            deltas = _run(resumed, replay_readings, start_after=12)
            assert [_delta_key(d) for d in deltas] == tail
            assert (
                uninterrupted.executor.cache.state_dict()
                == resumed.executor.cache.state_dict()
            )
            # A checkpoint written after the restore drops the fields.
            assert resumed.state_dict()["config"] == uninterrupted.state_dict()["config"]
            assert not set(PARENT_CONFIG_FIELDS) & set(resumed.state_dict()["config"])
        finally:
            uninterrupted.close()
            resumed.close()

    def test_other_unknown_config_key_still_raises(self, tmp_path, replay_readings):
        path = self._checkpoint_at(tmp_path, replay_readings, 4)
        document = json.loads(path.read_text())
        config = with_parent_config_fields(document["state"]["config"])
        config["particle_budget"] = 64
        config["another_knob"] = 1
        document["state"]["config"] = config
        path.write_text(json.dumps(document))
        with pytest.raises(CheckpointCompatibilityError) as refusal:
            restore_from_file(path)
        message = str(refusal.value)
        assert "'another_knob', 'particle_budget'" in message
        assert "re-create the checkpoint" in message
        assert "kalman" not in message
