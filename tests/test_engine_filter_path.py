"""One filter-tick path: the on-demand engine, the service and restores.

The query engine, the tracking service and every gateway worker filter
through one :class:`~repro.core.preprocessing.FilterExecutor`, each run
at second ``t`` drawing from its object's ``(seed, t, object)`` stream.
These tests pin what that buys: equal tables from the engine and the
service, repeatable time travel, one collector behind both simulation
engines, and a restored service that serves its saved tick at once.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import lint_project
from repro.config import DEFAULT_CONFIG
from repro.core.filter import FilterRequest
from repro.geometry import Point, Rect
from repro.queries import IndoorQueryEngine, KNNQuery, RangeQuery
from repro.service import ReadingBatch, ReplaySource, TrackingService, restore_service
from repro.sim import Simulation
from repro.sim.experiments import evaluate_accuracy
from tests.streams import cloud_json

REPO_SRC = Path(__file__).resolve().parents[1] / "src"
CONFIG = DEFAULT_CONFIG.with_overrides(num_objects=10, seed=13)
SECONDS = 24


def table_json(table):
    """Every bucket and every distribution, in the table's own order."""
    return json.dumps(
        [
            [[ap, table.items_at(ap)] for ap in table.anchors()],
            [[obj, table.distribution_of(obj)] for obj in table.objects()],
        ]
    )


@pytest.fixture(scope="module")
def world():
    sim = Simulation(CONFIG, build_symbolic=False)
    seconds = [(sim.step(), sim.now) for _ in range(SECONDS)]
    return sim, [(second, readings) for readings, second in seconds]


class TestEngineMatchesService:
    def test_unpruned_engine_table_equals_service_table(self, world):
        sim, seconds = world
        tags = sim.trace.tag_to_object()
        engine = IndoorQueryEngine(
            sim.plan, sim.readers, tags, config=CONFIG, use_pruning=False
        )
        service = TrackingService(
            CONFIG, plan=sim.plan, readers=sim.readers, tag_to_object=tags
        )
        compared = 0
        for second, readings in seconds:
            engine.ingest_second(second, readings)
            service.process_batch(ReadingBatch(second=second, readings=tuple(readings)))
            expected = table_json(service.snapshot().table)
            assert table_json(engine.evaluate(second).table) == expected, second
            compared += len(service.snapshot().table.objects())
        assert compared > 0


class TestFilterEntryPoints:
    def test_run_equals_a_batch_of_one(self):
        sim = Simulation(CONFIG, build_symbolic=False)
        sim.run_until(20)
        pf = sim.pf_engine.filter_backend.filter
        history = sim.pf_engine.collector.history(sim.pf_engine.collector.observed_objects()[0])
        resumed_from = pf.run(history, 12, seed=3)
        for resume in (None, (resumed_from.particles, resumed_from.end_second)):
            alone = pf.run(history, 20, seed=5, resume=resume)
            (batch,) = pf.run_many(
                [FilterRequest(history, resume)], 20, 5
            )
            assert alone.end_second == batch.end_second
            assert cloud_json(alone.particles) == cloud_json(batch.particles)


class TestHistoricalEvaluation:
    def test_evaluate_at_repeats_for_a_second(self, world):
        sim, seconds = world
        engine = IndoorQueryEngine(
            sim.plan, sim.readers, sim.trace.tag_to_object(), config=CONFIG,
            historical=True, use_pruning=False,
        )
        for second, readings in seconds:
            engine.ingest_second(second, readings)
        window = Rect(4, 0, 30, 12)
        first = engine.evaluate_at(14)
        engine.evaluate_at(20)
        engine.range_query_at(window, 9)
        again = engine.evaluate_at(14)
        assert table_json(first.table) == table_json(again.table)
        assert first.table.objects()
        range_a = engine.range_query_at(window, 14)
        range_b = engine.range_query_at(window, 14)
        assert json.dumps(range_a.probabilities) == json.dumps(range_b.probabilities)


class TestSharedCollector:
    SMALL = DEFAULT_CONFIG.with_overrides(
        num_objects=12,
        seed=5,
        warmup_seconds=20,
        duration_seconds=30,
        num_query_timestamps=3,
        num_range_queries=4,
        num_knn_queries=3,
    )

    def test_symbolic_answers_equal_an_engine_with_its_own_collector(self):
        sim = Simulation(self.SMALL)
        assert sim.sm_engine.collector is sim.pf_engine.collector
        own = IndoorQueryEngine(
            sim.plan, sim.readers, sim.trace.tag_to_object(), config=self.SMALL,
            graph=sim.graph, anchor_index=sim.anchor_index, filter_backend="symbolic",
        )
        queries = [
            (RangeQuery("r0", Rect(4, 0, 30, 12)), KNNQuery("k0", Point(30, 5), 3)),
            (RangeQuery("r1", Rect(30, 2, 50, 10)), KNNQuery("k1", Point(12, 5), 3)),
        ]
        for query_engine in (sim.sm_engine, own):
            for range_query, knn_query in queries:
                query_engine.register_range_query(range_query)
                query_engine.register_knn_query(knn_query)
        for second in range(1, 41):
            own.ingest_second(second, sim.step())
            if second % 10:
                continue
            shared, alone = sim.sm_engine.evaluate(second), own.evaluate(second)
            assert table_json(shared.table) == table_json(alone.table)
            for kind in ("range_results", "knn_results"):
                assert json.dumps(
                    {q: r.probabilities for q, r in getattr(shared, kind).items()}
                ) == json.dumps({q: r.probabilities for q, r in getattr(alone, kind).items()})

    def test_symbolic_metrics_match_the_two_collector_build(self):
        """``evaluate_accuracy``'s symbolic columns, as pinned before the
        engines shared a collector (the particle columns moved with the
        per-object streams; the symbolic ones draw nothing)."""
        report = evaluate_accuracy(self.SMALL, measure_topk=False)
        assert (report.range_kl_sm, report.knn_hit_sm) == pytest.approx(SYMBOLIC_PINS, abs=1e-9)


#: ``evaluate_accuracy(TestSharedCollector.SMALL)``'s symbolic columns,
#: computed with one collector per engine.
SYMBOLIC_PINS = (1.6529453638333798, 0.7777777777777778)


class TestLint:
    def test_seed_rule_accepts_the_core_executor_without_a_pragma(self):
        path = REPO_SRC / "repro" / "core" / "preprocessing.py"
        assert "repro-lint" not in path.read_text(encoding="utf-8")
        result = lint_project([str(REPO_SRC / "repro")], only=["SEED"])
        assert result.sorted_findings() == []


# ----------------------------------------------------------------------
# restore: the saved tick is served at once
# ----------------------------------------------------------------------
FAST = DEFAULT_CONFIG.with_overrides(num_objects=8, seed=11)
WINDOWS = (Rect(4, 0, 30, 12), Rect(30, 2, 50, 10), Rect(0, 0, 60, 40))
POINTS = ((Point(30, 5), 3), (Point(10, 5), 1), (Point(45, 8), 5))


@pytest.fixture(scope="module")
def replay_readings():
    sim = Simulation(FAST, build_symbolic=False)
    readings = []
    for _ in range(24):
        readings.extend(sim.step())
    return readings


def _service(backend, pruning):
    service = TrackingService(FAST, use_pruning=pruning, filter_backend=backend)
    service.sessions.subscribe_range(Rect(4, 0, 30, 12), session_id="r0")
    service.sessions.subscribe_knn(Point(30, 5), 3, session_id="k0")
    return service


def _answers(service):
    return json.dumps(
        [service.query_range(window).probabilities for window in WINDOWS]
        + [service.query_knn(point, k).probabilities for point, k in POINTS]
    )


def _deltas(service, readings, **window):
    return [
        (d.query_id, d.second, d.entered, d.left, d.updated)
        for batch in ReplaySource(readings, **window).batches()
        for d in service.process_batch(batch)
    ]


class TestRestoreServesTheSavedTick:
    @pytest.mark.parametrize("backend", ["particle", "symbolic"])
    @pytest.mark.parametrize("pruning", [False, True])
    def test_restored_snapshot_and_answers_equal_the_saved_service(
        self, replay_readings, backend, pruning
    ):
        saved = _service(backend, pruning)
        _deltas(saved, replay_readings, max_seconds=12)
        state = saved.state_dict()
        document = json.dumps(state)
        restored = restore_service(json.loads(document))

        before, after = saved.snapshot(), restored.snapshot()
        assert after.second == before.second == 12
        assert after.candidates == before.candidates
        assert table_json(after.table) == table_json(before.table)
        assert before.table.objects()
        assert _answers(restored) == _answers(saved)
        # Serving the saved tick leaves the checkpoint and the run alone.
        assert json.dumps(restored.state_dict()) == document
        assert _deltas(restored, replay_readings, start_after=12) == _deltas(
            saved, replay_readings, start_after=12
        )

    def test_a_checkpoint_before_the_first_tick_serves_nothing(self):
        restored = restore_service(json.loads(json.dumps(_service("particle", False).state_dict())))
        assert restored.snapshot().second == -1
        assert restored.snapshot().table.objects() == []
