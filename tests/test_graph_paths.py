"""Shortest paths of the walking graph, pinned without networkx.

``WalkingGraph`` runs its own heap Dijkstra (all-pairs distances) and
bidirectional Dijkstra (node paths) in networkx 3.x's order. Simulated
routes, and through them every generated world, depend on the exact
values, types, dict order and tie-broken paths, so each preset plan's
results are pinned by digest: a sha256 over the ``repr`` of every
all-pairs row (in dict order) and of every pair's shortest node path.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.floorplan import (
    FloorPlanBuilder,
    cross_office_plan,
    linear_office_plan,
    paper_office_plan,
    small_test_plan,
)
from repro.geometry import Point
from repro.graph import build_walking_graph

#: Digests computed with networkx 3.6.1 as the graph's path engine.
PINNED = {
    paper_office_plan: "ebfd4c51b8b8ca1f1b05bbbe303ede4dd888b00ba410840b25cd8c6e607fd9c4",
    small_test_plan: "d1496813993d013b7a972c0fdd449fc2208181e92e88044d9ccb56ef4fbc8f5f",
    linear_office_plan: "b1adb6f833231a9132f5a00b44b2d567ff38c311193071017aa0c63b96847fdf",
    cross_office_plan: "1b566d9f695ba76f0bea4a24c95e88c47f663b7cdaee69261ee083615f2c2cdb",
}

PLANS = pytest.mark.parametrize("make_plan", list(PINNED), ids=lambda f: f.__name__)


def graph_digest(graph) -> str:
    digest = hashlib.sha256()
    for source, row in graph._node_dist.items():
        digest.update(repr((source, list(row.items()))).encode())
    ids = [n.node_id for n in graph.nodes]
    for a in ids:
        for b in ids:
            digest.update(repr((a, b, graph.shortest_node_path(a, b))).encode())
    return digest.hexdigest()


@PLANS
def test_paths_match_pinned_digest(make_plan):
    assert graph_digest(build_walking_graph(make_plan())) == PINNED[make_plan]


def test_diagonal_is_int_zero(paper_graph):
    for node in paper_graph.nodes:
        zero = paper_graph.node_distance(node.node_id, node.node_id)
        assert type(zero) is int and zero == 0


def test_unknown_node_path_raises(small_graph):
    node = small_graph.nodes[0].node_id
    with pytest.raises(KeyError):
        small_graph.shortest_node_path(node, "nowhere")


def test_disconnected_graph_counts_components():
    builder = FloorPlanBuilder()
    builder.add_hallway("H1", Point(0, 5), Point(10, 5), width=2.0)
    builder.add_hallway("H2", Point(0, 25), Point(10, 25), width=2.0)
    builder.add_hallway("H3", Point(0, 45), Point(10, 45), width=2.0)
    with pytest.raises(ValueError, match="found 3 components"):
        build_walking_graph(builder.build())


@PLANS
def test_matches_networkx(make_plan):
    """Oracle check against networkx itself, where it is installed."""
    nx = pytest.importorskip("networkx")
    graph = build_walking_graph(make_plan())
    oracle = nx.Graph()
    oracle.add_nodes_from(n.node_id for n in graph.nodes)
    for edge in graph.edges:
        existing = oracle.get_edge_data(edge.node_a, edge.node_b)
        if existing is None or edge.length < existing["weight"]:
            oracle.add_edge(edge.node_a, edge.node_b, weight=edge.length, edge_id=edge.edge_id)
    expected = dict(nx.all_pairs_dijkstra_path_length(oracle, weight="weight"))
    assert repr(list(graph._node_dist.items())) == repr(list(expected.items()))
    ids = [n.node_id for n in graph.nodes]
    for a in ids:
        for b in ids:
            assert graph.shortest_node_path(a, b) == nx.shortest_path(oracle, a, b, weight="weight")
            data = oracle.get_edge_data(a, b)
            if data is not None:
                assert graph.connecting_edge(a, b).edge_id == data["edge_id"]


def test_packages_import_without_networkx_or_http_server():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys\n"
        "import repro.gateway, repro.service, repro.queries, repro.sim\n"
        "print(sorted({'networkx', 'http.server'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
