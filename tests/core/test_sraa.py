"""SRAA against the Fig. 6 pseudo-code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import SRAA, StaticRejuvenation
from repro.core.sla import ServiceLevelObjective

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestBatching:
    def test_no_decision_until_batch_completes(self):
        policy = SRAA(SLO, sample_size=3, n_buckets=1, depth=1)
        assert policy.observe(100.0) is False
        assert policy.observe(100.0) is False
        # Third observation completes the batch; d -> 1 (not yet > D).
        assert policy.observe(100.0) is False

    def test_batch_mean_not_raw_value_is_compared(self):
        policy = SRAA(SLO, sample_size=2, n_buckets=1, depth=1)
        # One huge value smoothed out by a tiny one: mean 5.5 > 5, adds
        # a ball; two tiny: removes one.
        policy.observe(10.9)
        policy.observe(0.1)
        assert policy.chain.fill == 1
        policy.observe(0.1)
        policy.observe(0.1)
        assert policy.chain.fill == 0


class TestTargets:
    def test_target_grows_by_sigma_per_bucket(self):
        policy = SRAA(SLO, sample_size=1, n_buckets=3, depth=1)
        assert policy.current_target() == 5.0
        policy.observe(100.0)
        policy.observe(100.0)  # overflow -> bucket 1
        assert policy.level == 1
        assert policy.current_target() == 10.0

    def test_target_independent_of_sample_size(self):
        small = SRAA(SLO, sample_size=1, n_buckets=2, depth=1)
        large = SRAA(SLO, sample_size=30, n_buckets=2, depth=1)
        assert small.current_target() == large.current_target()


class TestTriggering:
    def test_min_delay_is_depth_plus_one_times_buckets_batches(self):
        policy = SRAA(SLO, sample_size=2, n_buckets=2, depth=1)
        observations = 0
        while True:
            observations += 1
            if policy.observe(100.0):
                break
        # (D+1) * K batches of n: (1+1)*2*2 = 8 observations.
        assert observations == 8

    def test_trigger_resets_policy(self):
        policy = SRAA(SLO, sample_size=1, n_buckets=1, depth=1)
        policy.observe(100.0)
        assert policy.observe(100.0) is True
        assert policy.level == 0
        assert policy.chain.fill == 0
        assert policy.buffer.pending == 0

    def test_low_values_never_trigger(self):
        policy = SRAA(SLO, sample_size=2, n_buckets=2, depth=2)
        assert policy.observe_many([1.0] * 500) == []

    def test_burst_tolerance_of_multiple_buckets(self):
        # A burst shorter than the climb cannot trigger a K=5 chain.
        policy = SRAA(SLO, sample_size=1, n_buckets=5, depth=3)
        burst = [100.0] * 10 + [1.0] * 40
        assert policy.observe_many(burst * 5) == []

    def test_reset_clears_partial_batch_and_chain(self):
        policy = SRAA(SLO, sample_size=3, n_buckets=2, depth=2)
        policy.observe(100.0)
        policy.observe(100.0)
        policy.observe(100.0)
        policy.observe(100.0)
        policy.reset()
        assert policy.level == 0
        assert policy.buffer.pending == 0


class TestValidationAndIntrospection:
    def test_invalid_sample_size(self):
        with pytest.raises(ValueError):
            SRAA(SLO, sample_size=0, n_buckets=1, depth=1)

    def test_invalid_bucket_shape(self):
        with pytest.raises(ValueError, match="K >= 1"):
            SRAA(SLO, sample_size=1, n_buckets=0, depth=1)
        # The chain accepts D = 0 (CLTA), SRAA and static keep D >= 1.
        with pytest.raises(ValueError, match="D >= 1"):
            SRAA(SLO, sample_size=1, n_buckets=1, depth=0)
        with pytest.raises(ValueError, match="D >= 1"):
            StaticRejuvenation(SLO, n_buckets=1, depth=0)

    def test_describe(self):
        policy = SRAA(SLO, sample_size=2, n_buckets=5, depth=3)
        assert policy.describe() == "SRAA(n=2, K=5, D=3)"

    def test_name(self):
        assert SRAA(SLO, 1, 1, 1).name == "sraa"


class TestStaticRejuvenation:
    def test_is_sraa_with_n1(self):
        static = StaticRejuvenation(SLO, n_buckets=2, depth=3)
        assert static.sample_size == 1
        assert static.name == "static"
        assert static.describe() == "Static(K=2, D=3)"

    def test_behaves_like_sraa_n1(self):
        static = StaticRejuvenation(SLO, n_buckets=2, depth=1)
        twin = SRAA(SLO, sample_size=1, n_buckets=2, depth=1)
        values = [8.0, 2.0, 9.0, 9.0, 9.0, 9.0, 9.0, 1.0, 9.0, 9.0]
        assert static.observe_many(values) == twin.observe_many(values)


class TestStatisticalBehaviour:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_trigger_implies_recent_exceedances(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        policy = SRAA(SLO, sample_size=2, n_buckets=2, depth=2)
        values = rng.exponential(5.0, size=400)
        for value in values:
            triggered = policy.observe(value)
            if triggered:
                # After a trigger the policy must be pristine.
                assert policy.level == 0
                assert policy.chain.fill == 0
