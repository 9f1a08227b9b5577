"""Integration tests: the full Figure-3 pipeline on both estimators."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG
from repro.geometry import Point, Rect
from repro.queries import IndoorQueryEngine, KNNQuery, RangeQuery
from repro.rfid import RFIDReader
from repro.rfid.readings import RawReading
from repro.sim import Simulation
from repro.symbolic import SymbolicLocationModel

CONFIG = DEFAULT_CONFIG.with_overrides(
    num_objects=15,
    duration_seconds=60,
    warmup_seconds=30,
    num_query_timestamps=3,
    num_range_queries=4,
    num_knn_queries=3,
)


@pytest.fixture(scope="module")
def simulation():
    sim = Simulation(CONFIG)
    sim.run_until(60)
    return sim


class TestPfEngine:
    def test_snapshot_structure(self, simulation):
        engine = simulation.pf_engine
        engine.clear_queries()
        window = simulation.random_window()
        point = simulation.random_query_point()
        engine.register_range_query(RangeQuery("r0", window))
        engine.register_knn_query(KNNQuery("k0", point, 3))
        snapshot = engine.evaluate(60, rng=simulation.pf_rng)
        assert snapshot.second == 60
        assert "r0" in snapshot.range_results
        assert "k0" in snapshot.knn_results
        engine.clear_queries()

    def test_range_probabilities_valid(self, simulation):
        engine = simulation.pf_engine
        result = engine.range_query(Rect(10, 3, 25, 8), 60, rng=simulation.pf_rng)
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0 + 1e-9

    def test_knn_returns_at_least_k(self, simulation):
        engine = simulation.pf_engine
        result = engine.knn_query(Point(20, 5), 3, 60, rng=simulation.pf_rng)
        # With 15 objects spread around, the expansion should collect >= 3.
        assert result.total_probability >= 3.0 or len(result.objects()) == len(
            engine.collector.observed_objects()
        )

    def test_locations_snapshot_covers_observed(self, simulation):
        engine = simulation.pf_engine
        table = engine.locations_snapshot(60, rng=simulation.pf_rng)
        observed = engine.collector.observed_objects()
        assert set(table.objects()) <= set(observed)
        for object_id in table.objects():
            assert table.total_probability(object_id) == pytest.approx(1.0)

    def test_cache_speeds_up_second_evaluation(self, simulation):
        engine = simulation.pf_engine
        assert engine.cache is not None
        engine.locations_snapshot(60, rng=simulation.pf_rng)
        hits_before = engine.cache.stats.hits
        engine.locations_snapshot(60, rng=simulation.pf_rng)
        assert engine.cache.stats.hits > hits_before

    def test_pruning_reduces_candidates(self, simulation):
        engine = simulation.pf_engine
        engine.clear_queries()
        engine.register_range_query(RangeQuery("tiny", Rect(10, 4, 12, 6)))
        snapshot = engine.evaluate(60, rng=simulation.pf_rng)
        engine.clear_queries()
        assert len(snapshot.candidates) <= len(engine.collector.observed_objects())


class TestSymbolicEngine:
    def test_range_and_knn(self, simulation):
        engine = simulation.sm_engine
        result = engine.range_query(Rect(10, 3, 25, 8), 60)
        for probability in result.probabilities.values():
            assert 0.0 <= probability <= 1.0 + 1e-9
        knn = engine.knn_query(Point(20, 5), 3, 60)
        assert knn.total_probability >= 0.0

    def test_deterministic(self, simulation):
        engine = simulation.sm_engine
        a = engine.range_query(Rect(10, 3, 25, 8), 60)
        b = engine.range_query(Rect(10, 3, 25, 8), 60)
        assert a.probabilities == b.probabilities

    def test_snapshot_equals_the_symbolic_model(self):
        """The engine adds nothing to the model: same table, bit for bit."""
        sim = Simulation(CONFIG.with_overrides(num_objects=8))
        model = SymbolicLocationModel(
            sim.graph, sim.anchor_index, sim.readers, sim.config
        )
        checked = 0
        for second in (5, 12, 25, 40):
            sim.run_until(second)
            table = sim.sm_engine.locations_snapshot(second)
            for object_id in sim.sm_engine.collector.observed_objects():
                expected = model.infer(
                    sim.sm_engine.collector.history(object_id), second
                )
                assert table.distribution_of(object_id) == (expected or {})
                checked += 1
        assert checked > 0


class TestEngineStandalone:
    """Engine fed with a hand-built reading stream (no simulator)."""

    def _setup(self, filter_backend="particle"):
        from repro.floorplan import small_test_plan

        plan = small_test_plan()
        readers = [
            RFIDReader("d1", Point(3.0, 5.0), 2.0, "H1"),
            RFIDReader("d2", Point(10.0, 5.0), 2.0, "H1"),
            RFIDReader("d3", Point(17.0, 5.0), 2.0, "H1"),
        ]
        return IndoorQueryEngine(
            plan,
            readers,
            {"tag1": "o1"},
            config=DEFAULT_CONFIG,
            filter_backend=filter_backend,
        )

    def test_tracked_object_found_near_last_reader(self):
        engine = self._setup()
        # Object walks right: d2 at t=0..1, d3 at t=7..8.
        for second, reader in [(0, "d2"), (1, "d2"), (7, "d3"), (8, "d3")]:
            engine.ingest_second(
                second, [RawReading(second + 0.5, "tag1", reader)]
            )
        result = engine.range_query(Rect(15, 4, 20, 6), 8, rng=np.random.default_rng(0))
        assert result.probabilities.get("o1", 0.0) > 0.5

    def test_unseen_object_absent(self):
        engine = self._setup()
        result = engine.range_query(Rect(0, 0, 20, 10), 5, rng=np.random.default_rng(0))
        assert result.probabilities == {}

    def test_symbolic_engine_same_stream(self):
        engine = self._setup(filter_backend="symbolic")
        for second, reader in [(0, "d2"), (1, "d2"), (7, "d3"), (8, "d3")]:
            engine.ingest_second(second, [RawReading(second + 0.5, "tag1", reader)])
        result = engine.range_query(Rect(15, 4, 20, 6), 8)
        assert result.probabilities.get("o1", 0.0) > 0.3

    def test_symbolic_table_skips_unseen_objects(self):
        engine = self._setup(filter_backend="symbolic")
        engine.ingest_second(0, [RawReading(0.5, "tag1", "d2")])
        table = engine.preprocessing.process(["o1", "ghost"], engine.collector, 0)
        assert table.has_object("o1")
        assert not table.has_object("ghost")
        assert table.total_probability("o1") == pytest.approx(1.0)


class TestStepApi:
    """The per-tick step() APIs must be exact refactorings of the batch
    loops they were extracted from (the service layer is built on them)."""

    def test_sim_step_matches_run_until(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=6, seed=7)
        batch = Simulation(config, build_symbolic=False)
        stepped = Simulation(config, build_symbolic=False)
        batch.run_until(15)
        for _ in range(15):
            stepped.step()
        assert stepped.now == batch.now == 15
        assert stepped.true_positions() == batch.true_positions()
        assert [
            (r.time, r.tag_id, r.reader_id) for r in stepped.last_readings
        ] == [(r.time, r.tag_id, r.reader_id) for r in batch.last_readings]

    def test_sim_step_returns_the_tick_readings(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=6, seed=7)
        sim = Simulation(config, build_symbolic=False)
        readings = sim.step()
        assert readings == sim.last_readings
        assert all(int(r.time) == sim.now for r in readings)

    def test_engine_step_equals_ingest_plus_evaluate(self):
        config = DEFAULT_CONFIG.with_overrides(num_objects=6, seed=7)
        driver = Simulation(config, build_symbolic=False)
        per_second = []
        for _ in range(10):
            per_second.append(driver.step())

        composed = Simulation(config, build_symbolic=False).pf_engine
        stepped = Simulation(config, build_symbolic=False).pf_engine
        window = Rect(4, 0, 30, 12)
        composed.register_range_query(RangeQuery("w", window))
        stepped.register_range_query(RangeQuery("w", window))
        for second, readings in enumerate(per_second, start=1):
            composed.ingest_second(second, readings)
            snap_a = composed.evaluate(second, np.random.default_rng(second))
            snap_b = stepped.step(second, readings, np.random.default_rng(second))
            assert snap_a.second == snap_b.second
            assert (
                snap_a.range_results["w"].probabilities
                == snap_b.range_results["w"].probabilities
            )
