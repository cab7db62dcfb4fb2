"""CUSUM and EWMA control-chart baselines."""

import numpy as np
import pytest

from repro.core.control_charts import CUSUMPolicy, EWMAPolicy
from repro.core.sla import ServiceLevelObjective

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestCUSUM:
    def test_healthy_mean_keeps_statistic_at_zero(self):
        policy = CUSUMPolicy(SLO, k_sigmas=0.5, h_sigmas=5.0)
        # Values at the reference or below never accumulate.
        for _ in range(100):
            assert policy.observe(7.5) is False
        assert policy.statistic == 0.0

    def test_sustained_shift_detected(self):
        policy = CUSUMPolicy(SLO, k_sigmas=0.5, h_sigmas=5.0)
        # Shift to 15 (2 sigma): accumulates 7.5 per observation; the
        # interval h = 25 is crossed on the 4th, and the self-reset
        # re-detects every 4 observations while the shift persists.
        triggers = policy.observe_many([15.0] * 10)
        assert triggers == [3, 7]

    def test_single_spike_absorbed_if_below_h(self):
        policy = CUSUMPolicy(SLO, k_sigmas=0.5, h_sigmas=5.0)
        assert policy.observe(30.0) is False  # S = 22.5 < 25
        # Quiet traffic drains the statistic back to zero.
        for _ in range(20):
            policy.observe(2.0)
        assert policy.statistic == 0.0

    def test_huge_spike_triggers_immediately(self):
        policy = CUSUMPolicy(SLO)
        assert policy.observe(100.0) is True
        assert policy.statistic == 0.0  # self-reset

    def test_false_alarm_rate_small_on_healthy_traffic(self):
        rng = np.random.default_rng(0)
        policy = CUSUMPolicy(SLO, k_sigmas=1.0, h_sigmas=8.0)
        triggers = policy.observe_many(rng.exponential(5.0, size=20_000))
        # Exponential tails make some alarms unavoidable; they must be
        # rare.
        assert len(triggers) < 60

    def test_detects_faster_with_larger_shift(self):
        def delay(shift_mean):
            policy = CUSUMPolicy(SLO)
            for index in range(1_000):
                if policy.observe(shift_mean):
                    return index
            return None

        assert delay(40.0) < delay(12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CUSUMPolicy(SLO, k_sigmas=-0.1)
        with pytest.raises(ValueError):
            CUSUMPolicy(SLO, h_sigmas=0.0)

    def test_describe(self):
        assert "CUSUM" in CUSUMPolicy(SLO).describe()


class TestEWMA:
    def test_limit_formula(self):
        policy = EWMAPolicy(SLO, lam=0.2, L_sigmas=3.0)
        expected = 5.0 + 3.0 * 5.0 * np.sqrt(0.2 / 1.8)
        assert policy.limit == pytest.approx(expected)

    def test_starts_at_mean(self):
        assert EWMAPolicy(SLO).statistic == 5.0

    def test_sustained_shift_detected(self):
        policy = EWMAPolicy(SLO, lam=0.2, L_sigmas=3.0)
        triggers = policy.observe_many([20.0] * 50)
        assert triggers
        assert triggers[0] < 10

    def test_lam_one_is_shewhart(self):
        # lam = 1: the EWMA is the raw observation, limit mu + L sigma.
        policy = EWMAPolicy(SLO, lam=1.0, L_sigmas=3.0)
        assert policy.limit == pytest.approx(20.0)
        assert policy.observe(19.9) is False
        assert policy.observe(20.1) is True

    def test_small_lam_smooths_spikes(self):
        policy = EWMAPolicy(SLO, lam=0.05, L_sigmas=3.0)
        # A 2-sigma spike barely moves a slow EWMA (0.05*15 + 0.95*5 =
        # 5.5, well under the 7.4 limit), where a Shewhart chart with
        # the same width would wobble.
        assert policy.observe(15.0) is False
        assert policy.statistic < policy.limit

    def test_false_alarm_rate_small_on_healthy_traffic(self):
        rng = np.random.default_rng(1)
        policy = EWMAPolicy(SLO, lam=0.1, L_sigmas=4.0)
        triggers = policy.observe_many(rng.exponential(5.0, size=20_000))
        assert len(triggers) < 40

    def test_reset_recentres(self):
        policy = EWMAPolicy(SLO, lam=0.5)
        policy.observe(15.0)
        policy.reset()
        assert policy.statistic == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EWMAPolicy(SLO, lam=0.0)
        with pytest.raises(ValueError):
            EWMAPolicy(SLO, lam=1.5)
        with pytest.raises(ValueError):
            EWMAPolicy(SLO, L_sigmas=0.0)

    def test_describe(self):
        assert "EWMA" in EWMAPolicy(SLO).describe()


class TestComparisonWithBuckets:
    def test_all_detectors_catch_severe_degradation(self):
        from repro.core.buckets import SRAA

        rng = np.random.default_rng(2)
        degraded = rng.exponential(35.0, size=2_000)
        for policy in (
            CUSUMPolicy(SLO),
            EWMAPolicy(SLO),
            SRAA(SLO, 2, 5, 3),
        ):
            assert policy.observe_many(list(degraded))


class TestEdgeCases:
    def test_cusum_empty_stream_statistic_is_zero(self):
        policy = CUSUMPolicy(SLO)
        assert policy.statistic == 0.0
        assert policy.observe_many([]) == []

    def test_cusum_single_sample_below_reference(self):
        policy = CUSUMPolicy(SLO, k_sigmas=0.5, h_sigmas=5.0)
        assert policy.observe(SLO.mean) is False
        assert policy.statistic == 0.0

    def test_cusum_constant_series_at_reference_never_triggers(self):
        # Exactly at mu + k*sigma the increments are zero: the chart
        # must hold at zero variance forever, not drift or trigger.
        policy = CUSUMPolicy(SLO, k_sigmas=0.5, h_sigmas=5.0)
        reference = SLO.mean + 0.5 * SLO.std
        assert policy.observe_many([reference] * 500) == []
        assert policy.statistic == 0.0

    def test_cusum_deterministic_after_rejuvenation_reset(self):
        trace = [15.0] * 10 + [2.0] * 5 + [30.0] * 10
        veteran = CUSUMPolicy(SLO)
        veteran.observe_many(trace)
        veteran.reset()
        fresh = CUSUMPolicy(SLO)
        assert veteran.observe_many(trace) == fresh.observe_many(trace)

    def test_ewma_constant_series_at_mean_never_triggers(self):
        policy = EWMAPolicy(SLO, lam=0.2)
        assert policy.observe_many([SLO.mean] * 500) == []
        assert policy.statistic == pytest.approx(SLO.mean)

    def test_ewma_deterministic_after_rejuvenation_reset(self):
        trace = [12.0, 18.0, 25.0, 3.0] * 10
        veteran = EWMAPolicy(SLO, lam=0.3)
        veteran.observe_many(trace)
        veteran.reset()
        fresh = EWMAPolicy(SLO, lam=0.3)
        assert veteran.observe_many(trace) == fresh.observe_many(trace)
