"""Counters, gauges, histograms, and the determinism of merging."""

import pytest

from repro.obs.metrics import (
    LATENCY_BOUNDS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry_for_runs,
)
from repro.obs.tracer import Tracer


class TestCounter:
    def test_inc_and_merge(self):
        a, b = Counter(), Counter()
        a.inc()
        a.inc(2)
        b.inc(4)
        a.merge(b)
        assert a.value == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)


class TestGauge:
    def test_merge_is_last_write_wins(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        b.set(2.0)
        a.merge(b)
        assert a.value == 2.0

    def test_unwritten_gauge_does_not_overwrite(self):
        a, b = Gauge(), Gauge()
        a.set(1.0)
        a.merge(b)
        assert a.value == 1.0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == pytest.approx(55.5)
        assert hist.mean == pytest.approx(55.5 / 3)

    def test_merge_is_exact(self):
        """Merging per-run histograms equals one histogram over all data."""
        values = [0.3, 2.0, 7.0, 80.0, 400.0]
        split = Histogram()
        part = Histogram()
        for value in values[:2]:
            split.observe(value)
        for value in values[2:]:
            part.observe(value)
        split.merge(part)
        whole = Histogram()
        for value in values:
            whole.observe(value)
        assert split.counts == whole.counts
        assert split.sum == whole.sum
        assert (split.minimum, split.maximum) == (0.3, 400.0)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0,)).merge(Histogram(bounds=(2.0,)))

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(2.0, 1.0))

    def test_cumulative_ends_with_inf(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(0.5)
        hist.observe(3.0)
        assert hist.cumulative() == [(1.0, 1), (float("inf"), 2)]

    def test_default_bounds_cover_paper_regime(self):
        # Healthy ~5 s and degraded ~100 s response times must land in
        # interior buckets, not the +Inf overflow.
        assert LATENCY_BOUNDS_S[0] < 5.0 < LATENCY_BOUNDS_S[-1]
        assert 100.0 < LATENCY_BOUNDS_S[-1]


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc()
        assert registry.snapshot()["c"] == 2

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="a").inc()
        registry.counter("c", kind="b").inc(2)
        snapshot = registry.snapshot()
        assert snapshot['c{kind="a"}'] == 1
        assert snapshot['c{kind="b"}'] == 2

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m").inc()
        other = MetricsRegistry()
        other.gauge("m").set(1.0)
        with pytest.raises(TypeError):
            registry.merge(other)

    def test_merge_does_not_alias(self):
        source = MetricsRegistry()
        source.counter("c").inc()
        merged = MetricsRegistry()
        merged.merge(source)
        source.counter("c").inc(10)
        assert merged.snapshot()["c"] == 1

    def test_prometheus_format(self):
        registry = MetricsRegistry()
        registry.counter("repro_completed_total").inc(3)
        registry.gauge("repro_sim_duration_seconds").set(1.5)
        registry.histogram("repro_rt_seconds", bounds=(1.0,)).observe(0.5)
        text = registry.to_prometheus()
        assert "# TYPE repro_completed_total counter" in text
        assert "repro_completed_total 3" in text
        assert "repro_sim_duration_seconds 1.5" in text
        assert 'repro_rt_seconds_bucket{le="1"} 1' in text
        assert 'repro_rt_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_rt_seconds_count 1" in text

    def test_add_events(self):
        tracer = Tracer("all")
        tracer.emit(1.0, "request.complete", "system", index=0,
                    response_time=4.0)
        tracer.emit(2.0, "request.loss", "system", index=1,
                    reason="downtime")
        tracer.emit(3.0, "policy.trigger", "policy:SRAA", batch_mean=20.0)
        registry = MetricsRegistry()
        registry.add_events(tracer.payload())
        snapshot = registry.snapshot()
        assert snapshot['repro_trace_events_total{type="request.complete"}'] == 1
        assert snapshot['repro_request_losses_total{reason="downtime"}'] == 1
        assert snapshot['repro_policy_triggers_total{policy="policy:SRAA"}'] == 1
        assert snapshot["repro_response_time_seconds"]["count"] == 1

    def test_add_events_matches_a_walk_over_the_events(self):
        # Metrics register in the order a per-event walk first touches
        # them, and float fields fold in event order.
        tracer = Tracer("all")
        tracer.emit(1.0, "system.gc", "node0", pause_s=0.1)
        tracer.emit(2.0, "request.complete", "system", response_time=1.0)
        tracer.emit(3.0, "request.loss", "system", reason="a")
        tracer.emit(4.0, "system.gc", "node0", pause_s=0.2)
        tracer.emit(5.0, "policy.trigger", "policy:x", level=1)
        tracer.emit(6.0, "request.loss", "system")
        tracer.emit(7.0, "policy.batch", "policy:x", batch_mean=2.0)
        tracer.emit(8.0, "system.rejuvenation", "node0", lost=3)
        tracer.emit(9.0, "request.complete", "system", response_time=0.3)
        registry = MetricsRegistry()
        registry.add_events(tracer.payload())
        snapshot = registry.snapshot()
        events = 'repro_trace_events_total{type="%s"}'
        assert list(snapshot) == [
            events % "system.gc",
            "repro_gc_pause_seconds_total",
            events % "request.complete",
            "repro_response_time_seconds",
            events % "request.loss",
            'repro_request_losses_total{reason="a"}',
            events % "policy.trigger",
            'repro_policy_triggers_total{policy="policy:x"}',
            'repro_request_losses_total{reason="unknown"}',
            events % "policy.batch",
            "repro_batch_mean_seconds",
            events % "system.rejuvenation",
            "repro_rejuvenation_lost_jobs_total",
        ]
        assert snapshot[events % "system.gc"] == 2
        assert snapshot["repro_gc_pause_seconds_total"] == 0.1 + 0.2
        assert snapshot["repro_rejuvenation_lost_jobs_total"] == 3
        latency = snapshot["repro_response_time_seconds"]
        assert (latency["count"], latency["sum"]) == (2, 1.0 + 0.3)
        assert snapshot["repro_batch_mean_seconds"]["count"] == 1

    @pytest.mark.parametrize(
        "etype, data",
        [
            ("request.complete", {"index": 0}),
            ("request.complete", {"response_time": "slow"}),
            ("policy.batch", {"batch_mean": None}),
        ],
    )
    def test_add_events_rejects_a_missing_histogram_field(self, etype, data):
        tracer = Tracer("all")
        tracer.emit(1.0, etype, "system", **data)
        with pytest.raises(ValueError, match="without a numeric"):
            MetricsRegistry().add_events(tracer.payload())

    def test_add_events_of_an_empty_run_adds_nothing(self):
        registry = MetricsRegistry()
        registry.add_events(Tracer("all").payload())
        assert len(registry) == 0


class TestPrometheusConformance:
    """Text exposition format: HELP/TYPE per family, label escaping."""

    def test_every_family_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_completed_total").inc()
        registry.counter("some_unlisted_metric").inc()
        registry.gauge("repro_sim_duration_seconds").set(1.0)
        registry.histogram("repro_response_time_seconds").observe(2.0)
        lines = registry.to_prometheus().splitlines()
        families = {
            line.split()[2]
            for line in lines
            if line.startswith("# TYPE")
        }
        sample_names = set()
        for line in lines:
            if line.startswith("#") or not line:
                continue
            name = line.split("{")[0].split(" ")[0]
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix):
                    name = name[: -len(suffix)]
            sample_names.add(name)
        assert sample_names <= families
        helped = {
            line.split()[2]
            for line in lines
            if line.startswith("# HELP")
        }
        assert families == helped

    def test_unlisted_family_gets_fallback_help(self):
        registry = MetricsRegistry()
        registry.counter("some_unlisted_metric").inc()
        text = registry.to_prometheus()
        assert "# HELP some_unlisted_metric" in text
        assert "# TYPE some_unlisted_metric counter" in text

    def test_help_precedes_type_precedes_samples(self):
        registry = MetricsRegistry()
        registry.counter("repro_completed_total").inc(3)
        lines = registry.to_prometheus().splitlines()
        help_i = lines.index(
            "# HELP repro_completed_total Transactions completed"
        )
        type_i = lines.index("# TYPE repro_completed_total counter")
        sample_i = lines.index("repro_completed_total 3")
        assert help_i < type_i < sample_i

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "c", reason='say "no"\nto\\backslashes'
        ).inc()
        text = registry.to_prometheus()
        assert (
            'c{reason="say \\"no\\"\\nto\\\\backslashes"} 1' in text
        )
        # The raw newline must never reach the exposition.
        for line in text.splitlines():
            assert not line.startswith("to\\backslashes")

    def test_escaped_snapshot_still_one_line_per_sample(self):
        registry = MetricsRegistry()
        registry.counter("c", kind="multi\nline").inc()
        registry.counter("c", kind="plain").inc()
        body = [
            line
            for line in registry.to_prometheus().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(body) == 2

    def test_trailing_newline(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        assert registry.to_prometheus().endswith("\n")


class TestRegistryForRuns:
    def test_counts_runs_with_telemetry_schema_names(self, paper_config):
        from repro.ecommerce.runner import run_once
        from repro.ecommerce.workload import PoissonArrivals

        runs = [
            run_once(paper_config, PoissonArrivals(1.0), None, 500, seed=s)
            for s in (0, 1)
        ]
        snapshot = registry_for_runs(runs).snapshot()
        assert snapshot["repro_replications_total"] == 2
        # Names mirror the telemetry column schema.
        assert snapshot["repro_completed_total"] == sum(
            r.completed for r in runs
        )
        assert snapshot["repro_lost_total"] == sum(r.lost for r in runs)
        assert snapshot["repro_gc_count_total"] == sum(r.gc_count for r in runs)
