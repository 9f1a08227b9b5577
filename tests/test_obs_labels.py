"""Labeled metrics: freezing, aggregation, and thread-safety."""

import threading

import pytest

from repro import obs
from repro.obs.registry import MAX_LABELS, MetricsRegistry, freeze_labels


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()
    obs.set_clock(__import__("time").perf_counter)


# ----------------------------------------------------------------------
# label freezing
# ----------------------------------------------------------------------
class TestFreezeLabels:
    def test_none_and_empty_freeze_to_unlabeled(self):
        assert freeze_labels(None) == ()
        assert freeze_labels({}) == ()

    def test_sorted_and_stringified(self):
        frozen = freeze_labels({"shard": 3, "backend": "symbolic"})
        assert frozen == (("backend", "symbolic"), ("shard", "3"))

    def test_insertion_order_is_irrelevant(self):
        a = freeze_labels({"a": 1, "b": 2})
        b = freeze_labels({"b": 2, "a": 1})
        assert a == b

    def test_invalid_label_name_rejected(self):
        with pytest.raises(ValueError):
            freeze_labels({"bad-name": 1})
        with pytest.raises(ValueError):
            freeze_labels({"0lead": 1})

    def test_too_many_labels_rejected(self):
        labels = {f"l{i}": i for i in range(MAX_LABELS + 1)}
        with pytest.raises(ValueError):
            freeze_labels(labels)


# ----------------------------------------------------------------------
# registry semantics with labels
# ----------------------------------------------------------------------
class TestLabeledInstruments:
    def test_label_sets_are_independent_series(self):
        registry = MetricsRegistry()
        registry.counter("q", {"query": "range"}).inc(3)
        registry.counter("q", {"query": "knn"}).inc(2)
        registry.counter("q").inc()
        assert registry.counter("q", {"query": "range"}).value == 3
        assert registry.counter("q", {"query": "knn"}).value == 2
        assert registry.counter("q").value == 1

    def test_counter_total_sums_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("q", {"query": "range"}).inc(3)
        registry.counter("q", {"query": "knn"}).inc(2)
        registry.counter("q").inc()
        assert registry.counter_total("q") == 6
        assert registry.counter_total("missing") == 0

    def test_same_labels_return_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("c", {"shard": 0})
        b = registry.counter("c", {"shard": "0"})
        assert a is b

    def test_series_of_lists_every_label_set(self):
        registry = MetricsRegistry()
        registry.gauge("g", {"shard": 1}).set(5)
        registry.gauge("g", {"shard": 0}).set(7)
        series = registry.series_of("g")
        assert [s["labels"] for s in series] == [
            {"shard": "0"},
            {"shard": "1"},
        ]

    def test_snapshot_carries_labels(self):
        registry = MetricsRegistry()
        registry.counter("c", {"backend": "symbolic"}).inc()
        registry.histogram("h", {"shard": 2}).observe(1.0)
        snap = registry.snapshot()
        counter = snap["counters"][0]
        assert counter["labels"] == {"backend": "symbolic"}
        histogram = snap["histograms"][0]
        assert histogram["labels"] == {"shard": "2"}

    def test_unlabeled_snapshot_has_no_labels_key(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert "labels" not in registry.snapshot()["counters"][0]

    def test_snapshot_order_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b", {"x": 2}).inc()
        registry.counter("a").inc()
        registry.counter("b", {"x": 1}).inc()
        names = [
            (c["name"], c.get("labels")) for c in registry.snapshot()["counters"]
        ]
        assert names == [("a", None), ("b", {"x": "1"}), ("b", {"x": "2"})]


class TestFacadeLabels:
    def test_add_observe_gauge_with_labels(self):
        obs.enable()
        obs.add("c", 2, labels={"shard": 1})
        obs.gauge_set("g", 4.0, labels={"shard": 1})
        obs.observe("h", 0.5, labels={"shard": 1})
        with obs.timer("t", labels={"shard": 1}):
            pass
        snap = obs.snapshot()
        assert snap["metrics"]["counters"][0]["labels"] == {"shard": "1"}
        names = {h["name"] for h in snap["metrics"]["histograms"]}
        assert {"h", "t"} <= names

    def test_disabled_facade_ignores_labels(self):
        obs.add("c", labels={"shard": 1})
        assert obs.registry().snapshot()["counters"] == []


# ----------------------------------------------------------------------
# histogram sample-cap honesty
# ----------------------------------------------------------------------
class TestHistogramDropReporting:
    def test_dropped_samples_exported(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        h.max_samples = 4
        for i in range(10):
            h.observe(float(i))
        data = h.as_dict()
        assert data["count"] == 10
        assert data["dropped_samples"] == 6
        assert data["quantiles_estimated"] is True

    def test_uncapped_histogram_reports_zero_dropped(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        h.observe(1.0)
        data = h.as_dict()
        assert data["dropped_samples"] == 0
        assert data["quantiles_estimated"] is False


# ----------------------------------------------------------------------
# thread-safety: concurrent increments aggregate exactly
# ----------------------------------------------------------------------
class TestConcurrency:
    def test_concurrent_labeled_increments_are_exact(self):
        obs.enable()
        workers, per_worker = 8, 500

        def work(shard):
            for _ in range(per_worker):
                obs.add("thr.counter", labels={"shard": shard % 2})

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(workers)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = obs.registry().counter_total("thr.counter")
        assert total == workers * per_worker
        even = obs.registry().counter("thr.counter", {"shard": 0}).value
        odd = obs.registry().counter("thr.counter", {"shard": 1}).value
        assert even == odd == workers * per_worker // 2

    def test_concurrent_timer_use_keeps_pairing(self):
        obs.enable()
        errors = []

        def work():
            try:
                for _ in range(200):
                    with obs.timer("thr.timer"):
                        pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        h = obs.registry().histogram("thr.timer")
        assert h.count == 800
