"""Metrics-registry tests: metric types, exposition, snapshots, collectors."""

import json

import pytest

from repro.cmt import ProcessorConfig, simulate
from repro.obs import (
    EventTracer,
    MetricsRegistry,
    MetricsSnapshot,
    SNAPSHOT_SCHEMA_VERSION,
    events_metrics,
    sim_metrics,
)
from repro.obs.registry import Counter, Gauge, Histogram
from repro.spawning import select_profile_pairs


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("repro_test_total")
        counter.inc()
        counter.inc(4)
        assert counter.value() == 5

    def test_labelled_samples_are_independent(self):
        counter = Counter("repro_test_total")
        counter.inc(2, workload="gcc")
        counter.inc(3, workload="li")
        assert counter.value(workload="gcc") == 2
        assert counter.value(workload="li") == 3
        assert counter.value(workload="perl") == 0

    def test_only_goes_up(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter("repro_test_total").inc(-1)

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            Counter("repro_test_total").inc(1, **{"bad-label": "x"})


class TestGauge:
    def test_set_inc_and_negative_values(self):
        gauge = Gauge("repro_test_depth")
        gauge.set(10)
        gauge.inc(-3)
        assert gauge.value() == 7


class TestHistogram:
    def test_count_sum_and_buckets(self):
        hist = Histogram("repro_test_size", buckets=(1, 4, 16))
        for value in (1, 3, 5, 100):
            hist.observe(value)
        assert hist.count() == 4
        assert hist.sum() == 109
        lines = hist.expose()
        assert 'repro_test_size_bucket{le="1"} 1' in lines
        assert 'repro_test_size_bucket{le="4"} 2' in lines
        assert 'repro_test_size_bucket{le="16"} 3' in lines
        assert 'repro_test_size_bucket{le="+Inf"} 4' in lines
        assert "repro_test_size_sum 109" in lines
        assert "repro_test_size_count 4" in lines

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("repro_test_size", buckets=())
        with pytest.raises(ValueError):
            Histogram("repro_test_size", buckets=(1, 1, 2))

    def test_quantile_interpolates_over_buckets(self):
        hist = Histogram("repro_test_size", buckets=(1, 4, 16))
        for value in (1, 3, 5, 100):
            hist.observe(value)
        # rank 2 of 4 lands exactly at the top of the (1, 4] bucket.
        assert hist.quantile(0.5) == pytest.approx(4.0)
        # q=0 sits at the lower edge of the first occupied bucket.
        assert hist.quantile(0.0) == pytest.approx(0.0)
        # The overflow observation (100) clamps to the last bound.
        assert hist.quantile(1.0) == pytest.approx(16.0)

    def test_quantile_empty_series_is_none(self):
        hist = Histogram("repro_test_size", buckets=(1, 4))
        assert hist.quantile(0.5) is None
        hist.observe(2, workload="gcc")
        assert hist.quantile(0.5) is None  # unlabelled still empty
        assert hist.quantile(0.5, workload="li") is None

    def test_quantile_single_bucket(self):
        hist = Histogram("repro_test_size", buckets=(10,))
        hist.observe(5)
        hist.observe(5)
        # Half the mass -> halfway through the only bucket [0, 10].
        assert hist.quantile(0.5) == pytest.approx(5.0)
        assert hist.quantile(1.0) == pytest.approx(10.0)

    def test_quantile_respects_labels(self):
        hist = Histogram("repro_test_size", buckets=(2, 8))
        hist.observe(1, workload="gcc")
        hist.observe(7, workload="li")
        assert hist.quantile(1.0, workload="gcc") == pytest.approx(2.0)
        assert hist.quantile(1.0, workload="li") == pytest.approx(8.0)

    def test_quantile_rejects_out_of_range(self):
        hist = Histogram("repro_test_size", buckets=(1,))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            hist.quantile(1.5)


class TestRegistry:
    def test_registration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "help")
        second = registry.counter("repro_test_total")
        assert first is second
        assert "repro_test_total" in registry

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("repro_test_total")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "Things counted").inc(
            3, workload="gcc"
        )
        registry.gauge("repro_test_rate").set(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_test_total Things counted" in text
        assert "# TYPE repro_test_total counter" in text
        assert 'repro_test_total{workload="gcc"} 3' in text
        assert "repro_test_rate 0.5" in text
        assert text.endswith("\n")

    def test_jsonl_export_parses(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(2, workload="li")
        rows = [json.loads(line) for line in registry.to_jsonl().splitlines()]
        assert rows == [{
            "name": "repro_test_total", "type": "counter",
            "labels": {"workload": "li"}, "value": 2,
        }]


class TestSnapshot:
    def _registry(self, value):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(value, workload="gcc")
        return registry

    def test_schema_version_and_round_trip(self):
        snapshot = self._registry(3).snapshot()
        data = snapshot.to_dict()
        assert data["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        restored = MetricsSnapshot.from_dict(
            json.loads(json.dumps(data))
        )
        assert restored.flatten() == snapshot.flatten()

    def test_flatten_keys_carry_labels(self):
        flat = self._registry(3).snapshot().flatten()
        assert flat == {'repro_test_total{workload="gcc"}': 3}

    def test_diff_reports_deltas(self):
        before = self._registry(3).snapshot()
        after = self._registry(5).snapshot()
        changes = before.diff(after)
        assert len(changes) == 1
        assert changes[0]["before"] == 3
        assert changes[0]["after"] == 5
        assert changes[0]["delta"] == 2

    def test_diff_of_identical_snapshots_is_empty(self):
        snapshot = self._registry(3).snapshot()
        assert snapshot.diff(self._registry(3).snapshot()) == []

    def test_diff_marks_one_sided_samples(self):
        before = self._registry(3).snapshot()
        other = MetricsRegistry()
        other.counter("repro_other_total").inc(1)
        changes = before.diff(other.snapshot())
        keys = {c["key"]: c for c in changes}
        gone = keys['repro_test_total{workload="gcc"}']
        assert gone["after"] is None and "delta" not in gone
        new = keys["repro_other_total"]
        assert new["before"] is None


class TestCollectors:
    @pytest.fixture(scope="class")
    def traced_run(self, small_traces):
        trace = small_traces["compress"]
        pairs = select_profile_pairs(trace)
        tracer = EventTracer()
        stats = simulate(
            trace, pairs, ProcessorConfig(value_predictor="stride"),
            tracer=tracer,
        )
        return stats, tracer

    def test_sim_metrics_mirror_stats(self, traced_run):
        stats, _ = traced_run
        registry = sim_metrics(stats, workload="compress")
        flat = registry.snapshot().flatten()
        assert flat['repro_sim_cycles_total{workload="compress"}'] == (
            stats.cycles
        )
        assert flat['repro_sim_spawns_total{workload="compress"}'] == (
            stats.spawns
        )
        sizes = registry.histogram("repro_sim_thread_size_insts")
        assert sizes.count(workload="compress") == len(stats.thread_sizes)
        assert sizes.sum(workload="compress") == stats.instructions

    def test_events_metrics_mirror_counts(self, traced_run):
        _, tracer = traced_run
        registry = events_metrics(tracer.events)
        counter = registry.counter("repro_events_total")
        for kind, count in tracer.counts().items():
            assert counter.value(kind=kind) == count
