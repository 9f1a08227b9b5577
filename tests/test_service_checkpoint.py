"""Checkpoint/restore: warm restart must be invisible in the output.

A checkpoint holds no filter state: a restore replays each tracked
object's history to re-publish the saved tick, and every later table
and session delta equals an uninterrupted run's, byte for byte.
"""

import json

import pytest

from repro.config import DEFAULT_CONFIG
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
from tests.test_keyed_draws import table_json

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

            assert table_json(resumed.snapshot().table) == table_json(
                uninterrupted.snapshot().table
            )
            assert json.dumps(resumed.state_dict()) == json.dumps(
                uninterrupted.state_dict()
            )
        finally:
            uninterrupted.close()
            resumed.close()

    @pytest.mark.parametrize(
        "backend, prune",
        [("particle", False), ("particle", True), ("symbolic", False)],
    )
    def test_every_table_and_delta_equals_an_uninterrupted_run(
        self, tmp_path, replay_readings, backend, prune
    ):
        """``json.dumps`` of each tick's table and deltas, from the restore on."""
        cut = 10

        def served(service, start_after=None):
            ticks = []
            source = ReplaySource(replay_readings, start_after=start_after)
            for batch in source.batches():
                deltas = service.process_batch(batch)
                ticks.append(json.dumps([
                    batch.second,
                    table_json(service.snapshot().table),
                    [[d.query_id, d.second, d.entered, d.left, d.updated] for d in deltas],
                ]))
            return ticks

        def new_service():
            service = TrackingService(FAST, use_pruning=prune, filter_backend=backend)
            service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
            service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
            return service

        with new_service() as uninterrupted:
            full = served(uninterrupted)
        with new_service() as interrupted:
            _run(interrupted, replay_readings, max_seconds=cut)
            saved_table = table_json(interrupted.snapshot().table)
            path = tmp_path / "ckpt.json"
            save_checkpoint(interrupted, path)
        document = json.loads(path.read_text())
        assert document["checkpoint_version"] == 4
        assert "cache" not in document["state"]
        assert document["state"]["filter"] == {"backend": backend}
        with restore_from_file(path) as resumed:
            assert resumed.use_pruning is prune
            assert table_json(resumed.snapshot().table) == saved_table
            assert served(resumed, start_after=cut) == full[cut:]

    def test_restore_without_a_cache_equals_one_with_it(self, tmp_path, replay_readings):
        service = _new_service()
        try:
            _run(service, replay_readings, max_seconds=12)
            path = tmp_path / "ckpt.json"
            save_checkpoint(service, path)
        finally:
            service.close()
        cached = restore_from_file(path)
        cacheless = restore_from_file(path, use_cache=False)
        try:
            assert cached.executor.cache is not None
            assert cacheless.executor.cache is None
            for service in (cached, cacheless):
                _run(service, replay_readings, start_after=12)
            assert table_json(cached.snapshot().table) == table_json(
                cacheless.snapshot().table
            )
        finally:
            cached.close()
            cacheless.close()

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
            assert table_json(resumed.snapshot().table) == table_json(
                uninterrupted.snapshot().table
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
