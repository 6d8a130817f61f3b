"""Metrics registry: counters, gauges, histograms, spans, merging."""

import pickle

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    METRICS_FORMAT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.spans import NULL_SPAN, Span


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter()
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        counter.add(3)
        assert counter.value == 6.5

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter().inc(-1)


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge()
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_buckets_by_upper_edge_inclusive(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(106.5)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=())
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(2.0, 1.0))


class TestDisabledRegistry:
    def test_returns_shared_noop_metrics(self):
        registry = MetricsRegistry(enabled=False)
        assert registry.counter("a") is NULL_COUNTER
        assert registry.gauge("b") is NULL_GAUGE
        assert registry.histogram("c") is NULL_HISTOGRAM
        assert registry.span("d") is NULL_SPAN

    def test_noop_metrics_keep_nothing(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("a").inc(5)
        registry.gauge("b").set(3)
        registry.histogram("c").observe(1.0)
        with registry.span("d"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["spans"] == []
        assert NULL_COUNTER.value == 0.0
        assert NULL_HISTOGRAM.count == 0

    def test_default_registry_disabled_out_of_the_box(self):
        assert default_registry().enabled is False


class TestRegistry:
    def test_same_name_same_metric(self):
        registry = MetricsRegistry()
        registry.counter("engine.steps").inc(3)
        registry.counter("engine.steps").inc(4)
        assert registry.snapshot()["counters"]["engine.steps"] == 7.0

    def test_snapshot_is_json_shaped(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.0)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["format"] == METRICS_FORMAT
        assert snapshot["histograms"]["h"] == {
            "bounds": [1.0],
            "counts": [1, 0],
            "sum": 0.5,
            "count": 1,
        }


class TestSpans:
    def test_span_records_wall_and_sim_extents(self):
        registry = MetricsRegistry()
        ticks = iter([10.0, 35.0])
        with registry.span("phase.warmup", clock=lambda: next(ticks)) as span:
            pass
        assert span.wall_s >= 0.0
        assert span.sim_start_s == 10.0
        assert span.sim_stop_s == 35.0
        assert span.sim_s == 25.0
        assert registry.spans == [span]

    def test_nested_span_gets_parent(self):
        registry = MetricsRegistry()
        with registry.span("outer"):
            with registry.span("inner") as inner:
                pass
        assert inner.parent == "outer"
        assert [span.name for span in registry.spans] == ["inner", "outer"]

    def test_detail_is_kept(self):
        registry = MetricsRegistry()
        with registry.span("run_device", serial="bin-2") as span:
            pass
        assert span.detail == {"serial": "bin-2"}

    def test_span_closes_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("doomed"):
                raise RuntimeError("boom")
        (span,) = registry.spans
        assert span.wall_stop_s is not None

    def test_span_dict_round_trip(self):
        span = Span(
            name="phase.cooldown",
            wall_start_s=1.0,
            wall_stop_s=3.5,
            sim_start_s=0.0,
            sim_stop_s=600.0,
            parent="run_device",
            detail={"serial": "bin-0"},
        )
        assert Span.from_dict(span.to_dict()) == span

    def test_span_from_dict_missing_field(self):
        with pytest.raises(ObservabilityError):
            Span.from_dict({"name": "x"})


class TestDefaultRegistry:
    def test_use_registry_scopes_and_restores(self):
        outer = default_registry()
        scoped = MetricsRegistry(enabled=True)
        with use_registry(scoped) as active:
            assert active is scoped
            assert default_registry() is scoped
        assert default_registry() is outer

    def test_set_default_returns_previous(self):
        original = default_registry()
        replacement = MetricsRegistry(enabled=True)
        previous = set_default_registry(replacement)
        try:
            assert previous is original
            assert default_registry() is replacement
        finally:
            set_default_registry(original)


class TestMerge:
    def build_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("engine.steps").inc(100)
        registry.gauge("depth").set(2.0)
        registry.histogram("task.wall_s", bounds=(1.0, 5.0)).observe(0.4)
        with registry.span("run_device"):
            pass
        return registry.snapshot()

    def test_counters_add_spans_extend(self):
        parent = MetricsRegistry()
        parent.counter("engine.steps").inc(11)
        parent.merge_snapshot(self.build_snapshot())
        parent.merge_snapshot(self.build_snapshot())
        snapshot = parent.snapshot()
        assert snapshot["counters"]["engine.steps"] == 211.0
        assert snapshot["gauges"]["depth"] == 2.0
        assert snapshot["histograms"]["task.wall_s"]["count"] == 2
        assert len(snapshot["spans"]) == 2

    def test_histogram_bound_mismatch_rejected(self):
        parent = MetricsRegistry()
        parent.histogram("task.wall_s", bounds=(9.0,)).observe(1.0)
        with pytest.raises(ObservabilityError):
            parent.merge_snapshot(self.build_snapshot())

    def test_wrong_format_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge_snapshot({"format": "something-else"})

    def test_merge_into_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        registry.merge_snapshot(self.build_snapshot())
        assert registry.snapshot()["counters"] == {}

    def test_snapshot_survives_pickle(self):
        # Worker payloads carry snapshots across process boundaries.
        snapshot = self.build_snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
