"""The streaming rejuvenation monitor."""

import pytest

from repro.core.buckets import CLTA, SRAA
from repro.core.sla import ServiceLevelObjective
from repro.monitoring.monitor import RejuvenationMonitor

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestFeeding:
    def test_counts_observations(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=10))
        for _ in range(7):
            monitor.feed(5.0)
        assert monitor.observations == 7

    def test_trigger_detected_and_counted(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=2, z=1.96))
        assert monitor.feed(100.0) is False
        assert monitor.feed(100.0) is True
        assert monitor.triggers == 1

    def test_callback_invoked_with_time(self):
        fired = []
        monitor = RejuvenationMonitor(
            CLTA(SLO, sample_size=1, z=1.96), on_rejuvenate=fired.append
        )
        monitor.feed(100.0, time=12.5)
        assert fired == [12.5]

    def test_time_defaults_to_observation_index(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=1, z=1.96))
        monitor.feed(1.0)
        monitor.feed(100.0)
        assert monitor.trigger_times == [2.0]

    def test_metric_moments_tracked(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=100))
        for value in (4.0, 6.0):
            monitor.feed(value)
        assert monitor.moments.mean == pytest.approx(5.0)


class TestReport:
    def test_report_contents(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=1, z=1.96))
        for t, value in enumerate((100.0, 1.0, 100.0)):
            monitor.feed(value, time=float(t))
        report = monitor.report()
        assert report.observations == 3
        assert report.triggers == 2
        assert report.trigger_times == [0.0, 2.0]

    def test_mean_time_between_triggers(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=1, z=1.96))
        for t in (10.0, 30.0, 60.0):
            monitor.feed(100.0, time=t)
        assert monitor.report().mean_time_between_triggers == pytest.approx(
            25.0
        )

    def test_mean_time_between_triggers_degenerate(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=1, z=1.96))
        monitor.feed(100.0, time=1.0)
        assert monitor.report().mean_time_between_triggers == float("inf")


class TestInputValidation:
    def test_nan_rejected(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=5))
        with pytest.raises(ValueError):
            monitor.feed(float("nan"))
        assert monitor.observations == 0

    def test_infinity_rejected(self):
        monitor = RejuvenationMonitor(CLTA(SLO, sample_size=5))
        with pytest.raises(ValueError):
            monitor.feed(float("inf"))


class TestExternalRejuvenation:
    def test_policy_state_cleared(self):
        policy = SRAA(SLO, sample_size=1, n_buckets=3, depth=2)
        monitor = RejuvenationMonitor(policy)
        for _ in range(4):
            monitor.feed(100.0)
        assert policy.level > 0
        monitor.notify_external_rejuvenation()
        assert policy.level == 0
        assert policy.chain.fill == 0
