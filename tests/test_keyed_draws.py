"""What keying every draw by the stepped second buys, on random reading histories.

Every particle-filter draw is ``H(seed, object, stepped second, ...)``, so
a cloud's trajectory depends only on its history and the seconds it
steps, never on which tick steps them. Three consequences, checked on
both backends over randomized worlds:

* a run resumed from a cached state at any earlier second equals
  tick-by-tick stepping, byte for byte (paper Section 4.5's cache);
* a cache-less service equals a cached one, and ``evaluate_at`` equals
  ``evaluate``;
* the on-demand engine's answers with query-aware pruning equal its
  answers without pruning, for every object that pruning keeps (paper
  Section 4.3: pruning is lossless).

Exception, named here and in DESIGN: the comparison is per kept
object. Pruning drops objects whose whole reachable region misses every
query, so a query answer is compared on the objects both runs return;
nothing asserts that a dropped object had zero mass in the unpruned
answer (that is the pruning bound's own correctness, tested in
``tests/test_queries_pruning.py``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.queries import IndoorQueryEngine, KNNQuery, RangeQuery
from repro.service import ReadingBatch, TrackingService
from repro.sim import Simulation

BACKENDS = ["particle", "symbolic"]
SETTINGS = settings(
    max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def table_json(table):
    """Every bucket and every distribution, in the table's own order."""
    return json.dumps(
        [
            [[ap, table.items_at(ap)] for ap in table.anchors()],
            [[obj, table.distribution_of(obj)] for obj in table.objects()],
        ]
    )


@st.composite
def worlds(draw):
    """A random world: seed, object count and length of its reading stream."""
    config = DEFAULT_CONFIG.with_overrides(
        seed=draw(st.integers(0, 2**16)),
        num_objects=draw(st.integers(2, 6)),
        use_negative_information=draw(st.booleans()),
    )
    sim = Simulation(config, build_symbolic=False)
    seconds = draw(st.integers(6, 24))
    stream = [(sim.now, sim.step()) for _ in range(seconds)]
    stream = [(second + 1, readings) for second, readings in stream]
    return config, sim, stream


def _engine(config, sim, backend, **kwargs):
    return IndoorQueryEngine(
        sim.plan, sim.readers, sim.trace.tag_to_object(), config=config,
        filter_backend=backend, **kwargs,
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestResumeEqualsStepwise:
    @SETTINGS
    @given(world=worlds(), data=st.data())
    def test_resume_from_any_earlier_second(self, backend, world, data):
        config, sim, stream = world
        stepwise = _engine(config, sim, backend, use_pruning=False)
        sparse = _engine(config, sim, backend, use_pruning=False)
        last = stream[-1][0]
        # The sparse engine filters only at these seconds, so each of its
        # runs resumes from a cache entry several seconds old.
        asked = set(data.draw(st.lists(st.sampled_from([s for s, _ in stream]))))
        asked.add(last)
        compared = 0
        for second, readings in stream:
            stepwise.ingest_second(second, readings)
            sparse.ingest_second(second, readings)
            expected = table_json(stepwise.evaluate(second).table)
            if second in asked:
                assert table_json(sparse.evaluate(second).table) == expected, second
                compared += 1
        assert compared == len(asked)

    @SETTINGS
    @given(world=worlds())
    def test_cacheless_service_equals_cached(self, backend, world):
        config, sim, stream = world
        tags = sim.trace.tag_to_object()
        services = [
            TrackingService(
                config, plan=sim.plan, readers=sim.readers, tag_to_object=tags,
                use_cache=use_cache, filter_backend=backend,
            )
            for use_cache in (True, False)
        ]
        for second, readings in stream:
            tables = []
            for service in services:
                service.process_batch(ReadingBatch(second=second, readings=tuple(readings)))
                tables.append(table_json(service.snapshot().table))
            assert tables[0] == tables[1], second

    @SETTINGS
    @given(world=worlds(), data=st.data())
    def test_evaluate_at_equals_evaluate(self, backend, world, data):
        config, sim, stream = world
        engine = _engine(config, sim, backend, use_pruning=False, historical=True)
        served = {}
        for second, readings in stream:
            engine.ingest_second(second, readings)
            served[second] = table_json(engine.evaluate(second).table)
        for second in data.draw(st.lists(st.sampled_from(sorted(served)), min_size=1)):
            assert table_json(engine.evaluate_at(second).table) == served[second], second


class TestPruningIsLossless:
    @SETTINGS
    @given(world=worlds(), data=st.data())
    def test_pruned_answers_equal_unpruned_for_kept_objects(self, world, data):
        config, sim, stream = world
        bounds = sim.plan.bounds
        x = data.draw(st.floats(bounds.min_x, bounds.max_x - 4.0))
        y = data.draw(st.floats(bounds.min_y, bounds.max_y - 4.0))
        queries = (
            [RangeQuery("range", Rect(x, y, x + 4.0, y + 4.0))],
            [KNNQuery("knn", Point(x, y), data.draw(st.integers(1, 3)))],
        )
        engines = []
        for use_pruning in (True, False):
            engine = _engine(config, sim, "particle", use_pruning=use_pruning)
            engine.register_range_query(queries[0][0])
            engine.register_knn_query(queries[1][0])
            engines.append(engine)
        kept_total = 0
        for second, readings in stream:
            pruned, full = (
                engine.step(second, readings) for engine in engines
            )
            kept = pruned.table.objects()
            kept_total += len(kept)
            for object_id in kept:
                assert json.dumps(pruned.table.distribution_of(object_id)) == json.dumps(
                    full.table.distribution_of(object_id)
                ), (second, object_id)
            answer = pruned.range_results["range"].probabilities
            for object_id, probability in answer.items():
                assert full.range_results["range"].probabilities[object_id] == probability
        assert kept_total > 0
