"""The checkpoint writer: the file's bytes equal ``json.dumps``."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.gateway import GatewayCoordinator, TenantWorld, demo_tenants
from repro.gateway import checkpoint as gateway_checkpoint
from repro.service import LiveSimSource, TrackingService
from repro.service import checkpoint as service_checkpoint
from repro.service.checkpoint import write_json_atomic
from repro.sim import Simulation

#: Container sizes around which the cases are laid out.
_JSON_SLICE = 32

CASES = {
    "list longer than a slice": list(range(3 * _JSON_SLICE + 1)),
    "list of exactly one slice": [0.5] * _JSON_SLICE,
    "dict longer than a slice": {
        f"k{i}": [i, i / 3, None] for i in range(2 * _JSON_SLICE + 5)
    },
    "long list nested in dicts": {"a": {"b": [{"c": i} for i in range(2 * _JSON_SLICE)]}},
    "long dict of long lists": {
        f"o{i}": list(range(_JSON_SLICE + 2)) for i in range(_JSON_SLICE + 1)
    },
    "empty containers": {"d": {}, "l": [], "s": "", "nested": [[], {}, [[]]]},
    "empty dict": {},
    "empty list": [],
    "non-ascii strings": {
        "tenant-é": "ünïcødé ☃  ",
        "emoji": ["😀" * 3] * (_JSON_SLICE + 1),
    },
    "escapes": {"q\"\\\n": "\t\x00\x1f/"},
    "floats": [0.1, -0.0, 1e300, 5e-324, float("nan"), float("inf"), -float("inf"), 1.0],
    "bools and none": {"t": True, "f": False, "n": None, "i": -7, "big": 2**70},
    "non-string keys": {1: "a", 2.5: "b", None: "d", False: "e"},
    "long dict with one non-string key": {**{str(i): i for i in range(_JSON_SLICE + 3)}, 7: "x"},
    "tuples": {"pair": (1, 2), "long": tuple(range(_JSON_SLICE + 1))},
    "scalar document": 3.25,
    "string document": "just text",
}


def _written(path, document) -> bytes:
    write_json_atomic(str(path), document)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_equal_json_dumps(tmp_path, name):
    document = CASES[name]
    assert _written(tmp_path / "doc.json", document) == json.dumps(document).encode("utf-8")


def test_replaces_the_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("old")
    write_json_atomic(str(path), {"new": [1, 2]})
    assert path.read_text() == '{"new": [1, 2]}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (
        st.lists(children, max_size=2 * _JSON_SLICE + 3)
        | st.dictionaries(st.text(max_size=4), children, max_size=2 * _JSON_SLICE + 3)
    ),
    max_leaves=300,
)


@settings(max_examples=150, deadline=None)
@given(document=json_values)
def test_any_json_document(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    assert _written(path, document) == json.dumps(document).encode("utf-8")


def test_service_checkpoint_over_a_fixed_replay(tmp_path):
    config = DEFAULT_CONFIG.with_overrides(seed=5, num_objects=12)
    with TrackingService(config, seed=5) as service:
        service.enable_analytics()
        sim = Simulation(
            config, plan=service.plan, readers=service.readers, build_symbolic=False
        )
        for batch in LiveSimSource(sim, 40).batches():
            service.process_batch(batch)
        path = tmp_path / "service.json"
        service_checkpoint.save_checkpoint(service, str(path))
        document = {
            "format": service_checkpoint.CHECKPOINT_FORMAT,
            "checkpoint_version": service_checkpoint.CHECKPOINT_VERSION,
            "state": service.state_dict(),
        }
    # A checkpoint holds no filter states: a restore replays them.
    assert "cache" not in document["state"]
    assert document["state"]["collector"]["runs"]
    assert path.read_bytes() == json.dumps(document).encode("utf-8")


def test_gateway_checkpoint_over_a_fixed_replay(tmp_path):
    specs = demo_tenants(2, base_seed=23, num_objects=4, plan="small")
    batches = {}
    for spec in specs:
        world = TenantWorld(spec)
        sim = Simulation(
            world.config, plan=world.plan, readers=world.readers, build_symbolic=False
        )
        batches[spec.tenant_id] = list(LiveSimSource(sim, 8).batches())
    coordinator = GatewayCoordinator(specs, num_partitions=2, transport="inline")
    with coordinator:
        for step in range(8):
            for spec in specs:
                coordinator.submit_tick(spec.tenant_id, batches[spec.tenant_id][step])
            for _ in specs:
                coordinator.collect_tick()
        path = tmp_path / "gateway.json"
        gateway_checkpoint.save_checkpoint(coordinator, str(path))
        document = {
            "format": gateway_checkpoint.GATEWAY_CHECKPOINT_FORMAT,
            "checkpoint_version": gateway_checkpoint.GATEWAY_CHECKPOINT_VERSION,
            "state": coordinator.state_dict(),
        }
    for service in document["state"]["services"].values():
        assert "cache" not in service
    assert path.read_bytes() == json.dumps(document).encode("utf-8")
