"""CLTA: Fig. 8 semantics and the false-alarm calibration."""

import math

import numpy as np
import pytest

from repro.core.buckets import CLTA
from repro.core.sla import ServiceLevelObjective

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestThreshold:
    def test_paper_threshold(self):
        policy = CLTA(SLO, sample_size=30, z=1.96)
        assert policy.threshold == pytest.approx(
            5.0 + 1.96 * 5.0 / math.sqrt(30)
        )

    def test_larger_n_tightens_threshold(self):
        loose = CLTA(SLO, sample_size=15, z=1.96)
        tight = CLTA(SLO, sample_size=60, z=1.96)
        assert tight.threshold < loose.threshold

    def test_from_false_alarm_rate(self):
        policy = CLTA.from_false_alarm_rate(
            SLO, sample_size=30, false_alarm_rate=0.025
        )
        assert policy.z == pytest.approx(1.959964, abs=1e-5)

    def test_from_false_alarm_rate_validation(self):
        with pytest.raises(ValueError):
            CLTA.from_false_alarm_rate(SLO, 30, false_alarm_rate=0.0)


class TestTriggering:
    def test_single_large_batch_mean_triggers(self):
        policy = CLTA(SLO, sample_size=3, z=1.96)
        assert policy.observe(100.0) is False
        assert policy.observe(100.0) is False
        assert policy.observe(100.0) is True

    def test_single_spike_smoothed_out(self):
        policy = CLTA(SLO, sample_size=30, z=1.96)
        values = [100.0] + [1.0] * 29  # mean 4.3 < 6.79
        assert policy.observe_many(values) == []

    def test_no_bucket_memory(self):
        # Unlike SRAA, history of near-threshold batches is irrelevant.
        policy = CLTA(SLO, sample_size=2, z=1.96)
        near = [6.0, 6.0] * 50  # each batch mean 6 < 11.93
        assert policy.observe_many(near) == []

    def test_trigger_clears_buffer(self):
        policy = CLTA(SLO, sample_size=2, z=1.96)
        policy.observe(50.0)
        assert policy.observe(50.0) is True
        assert policy.buffer.pending == 0

    def test_reset(self):
        policy = CLTA(SLO, sample_size=3, z=1.96)
        policy.observe(50.0)
        policy.reset()
        assert policy.buffer.pending == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            CLTA(SLO, sample_size=0)

    def test_describe(self):
        assert CLTA(SLO, 30, 1.96).describe() == "CLTA(n=30, z=1.96)"


class TestFalseAlarmRate:
    def test_empirical_rate_on_normal_data(self):
        # On truly normal data the false-alarm rate is the nominal one.
        rng = np.random.default_rng(7)
        policy = CLTA(SLO, sample_size=25, z=1.96)
        batches = 4_000
        values = rng.normal(5.0, 5.0, size=batches * 25)
        triggers = len(policy.observe_many(values))
        assert triggers / batches == pytest.approx(0.025, abs=0.008)

    def test_empirical_rate_on_exponential_data_is_inflated(self):
        # Skewed data inflates the rate above nominal (Section 4.1).
        rng = np.random.default_rng(8)
        policy = CLTA(SLO, sample_size=15, z=1.96)
        batches = 4_000
        values = rng.exponential(5.0, size=batches * 15)
        triggers = len(policy.observe_many(values))
        assert triggers / batches > 0.028

    def test_shifted_distribution_detected_quickly(self):
        rng = np.random.default_rng(9)
        policy = CLTA(SLO, sample_size=30, z=1.96)
        # A 2-sigma shift: mean 15; P(batch mean < 6.79) is tiny.
        values = rng.exponential(15.0, size=300)
        triggers = policy.observe_many(values)
        assert triggers and triggers[0] < 90
