"""Checkpoints written by older builds: version 2 refused, version 3 resumed.

``tests/fixtures/checkpoints`` holds two files written by the last
version-2 build and one written by the last version-3 build (see the
README there for the exact commands):

* ``service-v2.json`` — ``repro serve`` over the ``simulate --objects 10
  --seconds 20 --seed 3`` world, checkpointed after 10 of 20 seconds,
  with one standing range and one standing kNN query;
* ``gateway-v2.json`` — ``repro gateway`` with two ``small``-plan demo
  tenants of 5 objects, checkpointed after 6 seconds, with analytics
  and one range and one kNN session per tenant;
* ``service-v3.json`` — the same ``serve`` run as ``service-v2.json``,
  written with keyed draws (particle state version 2) and a cache
  document of particle states.

Version 3 dropped the collector's ENTER/LEAVE event log and the
gateway's ``shed_subticks`` counter; loading still migrates both away.
But both files hold particle states of state version 1, stepped on
per-tick generator streams, while this build keys every draw by the
stepped second (state version 2). A resume could not continue the run
that wrote them, so restoring either is refused: exit 2 and "re-create
the checkpoint".

Version 4 dropped the cache. The version-3 file's cache is dropped on
load, and its restore replays every history: the resumed run prints the
deltas of an uninterrupted run of this build.
"""

import json
import os

import pytest

from repro.cli import main
from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.gateway import (
    GatewayCompatibilityError,
    load_checkpoint as load_gateway_checkpoint,
    restore_coordinator,
)
from repro.io import load_deployment, load_floorplan
from repro.service import ReplaySource, TrackingService
from repro.service.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointCompatibilityError,
    load_checkpoint,
    restore_from_file,
    save_checkpoint,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "checkpoints")
SERVICE_V2 = os.path.join(FIXTURES, "service-v2.json")
SERVICE_V3 = os.path.join(FIXTURES, "service-v3.json")
GATEWAY_V2 = os.path.join(FIXTURES, "gateway-v2.json")

SERVICE_CUT = 10


def _raw(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _delta_key(delta):
    return (delta.query_id, delta.second, delta.entered, delta.left, delta.updated)


def _table(table):
    return {obj: table.distribution_of(obj) for obj in sorted(table.objects())}


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """The replay, plan and deployment the service fixture was served on."""
    directory = tmp_path_factory.mktemp("world")
    paths = {name: str(directory / name) for name in ("run.csv", "plan.json", "readers.json")}
    assert main([
        "simulate", "--objects", "10", "--seconds", "20", "--seed", "3",
        "--readings", paths["run.csv"],
        "--plan", paths["plan.json"],
        "--deployment", paths["readers.json"],
    ]) == 0
    return {
        "replay": paths["run.csv"],
        "plan": load_floorplan(paths["plan.json"]),
        "readers": load_deployment(paths["readers.json"]),
        "plan_path": paths["plan.json"],
        "readers_path": paths["readers.json"],
    }


def _serve(service, world):
    for batch in ReplaySource.from_file(world["replay"]):
        service.process_batch(batch)


class TestServiceFixture:
    def test_fixture_is_a_version_2_file_with_an_event_log(self):
        document = _raw(SERVICE_V2)
        assert document["checkpoint_version"] == 2
        assert document["state"]["collector"]["events"]

    def test_load_drops_the_event_log(self):
        state = load_checkpoint(SERVICE_V2)
        assert "events" not in state["collector"]
        assert state["ticks"] == SERVICE_CUT

    def test_restore_is_refused(self, world, capsys):
        with pytest.raises(CheckpointCompatibilityError, match="re-create the checkpoint"):
            restore_from_file(SERVICE_V2, plan=world["plan"], readers=world["readers"])
        status = main([
            "serve", "--replay", world["replay"],
            "--plan", world["plan_path"], "--deployment", world["readers_path"],
            "--restore", SERVICE_V2,
        ])
        assert status == 2
        assert "re-create the checkpoint" in capsys.readouterr().err

    def test_resave_is_version_4(self, world, tmp_path):
        # A checkpoint of this build over the same world is version 4.
        service = TrackingService(
            DEFAULT_CONFIG, plan=world["plan"], readers=world["readers"]
        )
        path = tmp_path / "state.json"
        with service:
            _serve(service, world)
            save_checkpoint(service, path)
        document = _raw(path)
        assert document["checkpoint_version"] == CHECKPOINT_VERSION == 4
        assert "events" not in document["state"]["collector"]
        assert "cache" not in document["state"]
        assert document["state"]["filter"] == {"backend": "particle"}


class TestServiceV3Fixture:
    SERVE = ["--range", "4,0,30,12", "--knn", "30,5,3"]

    def _serve_args(self, world):
        return [
            "serve", "--replay", world["replay"],
            "--plan", world["plan_path"], "--deployment", world["readers_path"],
        ]

    def _delta_lines(self, text):
        return [line for line in text.splitlines() if line.startswith("[t=")]

    def test_fixture_is_a_version_3_file_with_cached_particles(self):
        document = _raw(SERVICE_V3)
        assert document["checkpoint_version"] == 3
        state = document["state"]
        assert state["filter"] == {"backend": "particle", "state_version": 2}
        assert state["cache"]["entries"]
        assert state["ticks"] == SERVICE_CUT

    def test_load_drops_the_cache(self):
        state = load_checkpoint(SERVICE_V3)
        assert "cache" not in state
        assert state["filter"] == {"backend": "particle", "state_version": 2}

    def test_restore_resumes_like_an_uninterrupted_run(self, world):
        with TrackingService(
            DEFAULT_CONFIG, plan=world["plan"], readers=world["readers"]
        ) as uninterrupted:
            uninterrupted.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="range-0")
            uninterrupted.sessions.subscribe_knn(Point(30, 5), 3, session_id="knn-0")
            full = []
            for batch in ReplaySource.from_file(world["replay"]).batches():
                deltas = uninterrupted.process_batch(batch)
                full.append((_table(uninterrupted.snapshot().table), deltas))
        with restore_from_file(
            SERVICE_V3, plan=world["plan"], readers=world["readers"]
        ) as resumed:
            assert resumed.ticks == resumed.last_second == SERVICE_CUT
            assert _table(resumed.snapshot().table) == full[SERVICE_CUT - 1][0]
            tail = []
            source = ReplaySource.from_file(world["replay"], start_after=SERVICE_CUT)
            for batch in source.batches():
                deltas = resumed.process_batch(batch)
                tail.append((_table(resumed.snapshot().table), deltas))

        def ticks_json(ticks):
            return json.dumps(
                [[table, [_delta_key(d) for d in deltas]] for table, deltas in ticks]
            )

        assert ticks_json(tail) == ticks_json(full[SERVICE_CUT:])
        assert any(deltas for _, deltas in tail)

    def test_serve_restore_prints_the_uninterrupted_deltas(self, world, capsys):
        assert main(self._serve_args(world) + self.SERVE + ["--seconds", "20"]) == 0
        uninterrupted = [
            line for line in self._delta_lines(capsys.readouterr().out)
            if int(line[3:line.index("]")]) > SERVICE_CUT
        ]
        assert main(self._serve_args(world) + ["--restore", SERVICE_V3]) == 0
        restored = self._delta_lines(capsys.readouterr().out)
        assert restored == uninterrupted
        assert restored[0].startswith(f"[t={SERVICE_CUT + 1}]")

    def test_an_old_stream_copy_is_refused(self, world, tmp_path, capsys):
        document = _raw(SERVICE_V3)
        document["state"]["filter"]["state_version"] = 1
        path = tmp_path / "old-stream.json"
        path.write_text(json.dumps(document))
        status = main(self._serve_args(world) + ["--restore", str(path)])
        assert status == 2
        assert "re-create the checkpoint" in capsys.readouterr().err


# ----------------------------------------------------------------------
# gateway
# ----------------------------------------------------------------------
class TestGatewayFixture:
    def test_fixture_is_a_version_2_file(self):
        document = _raw(GATEWAY_V2)
        assert document["checkpoint_version"] == 2
        state = document["state"]
        for record in state["serving"].values():
            assert record["shed_subticks"] == 0
        for service in state["services"].values():
            assert service["collector"]["events"]

    def test_load_drops_retired_fields(self):
        state = load_gateway_checkpoint(GATEWAY_V2)
        for tid, record in state["serving"].items():
            assert sorted(record) == ["last_second", "partial_ticks", "ticks"]
            assert "events" not in state["services"][tid]["collector"]

    @pytest.mark.parametrize("partitions", [2, 3])
    def test_restore_is_refused(self, partitions, capsys):
        with pytest.raises(GatewayCompatibilityError, match="re-create the checkpoint"):
            restore_coordinator(GATEWAY_V2, num_partitions=partitions, transport="inline")
        status = main([
            "gateway", "--restore", GATEWAY_V2, "--partitions", str(partitions),
            "--transport", "inline", "--seconds", "4", "--quiet",
        ])
        assert status == 2
        assert "re-create the checkpoint" in capsys.readouterr().err
