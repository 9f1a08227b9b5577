"""Shared fixtures.

Expensive immutable structures (floor plans, walking graphs, anchor
indexes, deployments) are session-scoped: they are read-only for every
test that uses them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.floorplan import paper_office_plan, small_test_plan
from repro.graph import build_anchor_index, build_walking_graph
from repro.geometry import Point
from repro.rfid import RFIDReader, deploy_readers_uniform, reader_by_id


@pytest.fixture(scope="session")
def paper_plan():
    return paper_office_plan()


@pytest.fixture(scope="session")
def small_plan():
    return small_test_plan()


@pytest.fixture(scope="session")
def paper_graph(paper_plan):
    return build_walking_graph(paper_plan)


@pytest.fixture(scope="session")
def small_graph(small_plan):
    return build_walking_graph(small_plan)


@pytest.fixture(scope="session")
def paper_anchors(paper_graph):
    return build_anchor_index(paper_graph, spacing=1.0)


@pytest.fixture(scope="session")
def small_anchors(small_graph):
    return build_anchor_index(small_graph, spacing=1.0)


@pytest.fixture(scope="session")
def paper_readers(paper_plan):
    return deploy_readers_uniform(
        paper_plan, DEFAULT_CONFIG.num_readers, DEFAULT_CONFIG.activation_range
    )


@pytest.fixture(scope="session")
def paper_readers_by_id(paper_readers):
    return reader_by_id(paper_readers)


@pytest.fixture(scope="session")
def small_readers():
    return [
        RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
        RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
        RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
