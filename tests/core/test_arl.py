"""Exact run-length analysis of the bucket chain."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arl import BucketChainARL, sraa_exceedance_probabilities
from repro.core.buckets import BucketChain, Transition

probabilities = st.floats(min_value=0.05, max_value=0.95)


def simulate_mean_run_length(K, D, probs, runs, seed):
    """Monte-Carlo reference: drive the real BucketChain with coin flips."""
    rng = np.random.default_rng(seed)
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    if probs.size == 1:
        probs = np.repeat(probs, K)
    lengths = []
    for _ in range(runs):
        chain = BucketChain(K, D)
        steps = 0
        while True:
            steps += 1
            exceeded = rng.random() < probs[chain.level]
            if chain.record(exceeded) is Transition.TRIGGER:
                break
            if steps > 200_000:  # pragma: no cover - guards hangs
                raise AssertionError("no trigger in 200k steps")
        lengths.append(steps)
    return float(np.mean(lengths))


class TestClosedForms:
    def test_certain_exceedance_gives_min_delay(self):
        for K, D in [(1, 1), (2, 3), (5, 3), (3, 10)]:
            arl = BucketChainARL(K, D)
            assert arl.mean_batches_to_trigger(1.0) == pytest.approx(
                (D + 1) * K
            )

    def test_k1_d1_closed_form(self):
        # States d=0,1. E0 = 1 + p E1 + (1-p) E0 ; E1 = 1 + (1-p) E0.
        # Solving: E0 = (1 + p) / p^2.
        for p in (0.2, 0.5, 0.9):
            expected = (1 + p) / p**2
            assert BucketChainARL(1, 1).mean_batches_to_trigger(
                p
            ) == pytest.approx(expected)

    def test_k1_d0_closed_form_is_geometric(self):
        # CLTA's chain fires on the first exceedance: a geometric wait.
        for p in (0.0337, 0.3, 1.0):
            assert BucketChainARL(1, 0).mean_batches_to_trigger(
                p
            ) == pytest.approx(1 / p)

    def test_impossible_climb_is_infinite(self):
        arl = BucketChainARL(2, 1)
        assert arl.mean_batches_to_trigger([0.9, 0.0]) == float("inf")
        assert arl.mean_batches_to_trigger(0.0) == float("inf")

    def test_observations_scale_with_batch_size(self):
        arl = BucketChainARL(2, 2)
        batches = arl.mean_batches_to_trigger(0.7)
        assert arl.mean_observations_to_trigger(0.7, 15) == pytest.approx(
            15 * batches
        )


class TestMonteCarloAgreement:
    @pytest.mark.parametrize(
        "K, D, p",
        [
            (1, 0, 0.3),
            (1, 1, 0.6),
            (1, 3, 0.7),
            (2, 2, 0.6),
            (3, 1, 0.8),
            (5, 3, 0.9),
        ],
    )
    def test_scalar_probability(self, K, D, p):
        exact = BucketChainARL(K, D).mean_batches_to_trigger(p)
        empirical = simulate_mean_run_length(K, D, p, runs=3_000, seed=42)
        assert empirical == pytest.approx(exact, rel=0.1)

    def test_per_level_probabilities(self):
        # SRAA-like: bucket 0 easy to exceed, deeper buckets harder.
        probs = [0.8, 0.4, 0.3]
        exact = BucketChainARL(3, 1).mean_batches_to_trigger(probs)
        empirical = simulate_mean_run_length(
            3, 1, probs, runs=3_000, seed=7
        )
        assert empirical == pytest.approx(exact, rel=0.1)

    @given(probabilities, st.integers(1, 3), st.integers(1, 3))
    @settings(max_examples=15, deadline=None)
    def test_property_exact_at_least_min_delay(self, p, K, D):
        exact = BucketChainARL(K, D).mean_batches_to_trigger(p)
        assert exact >= (D + 1) * K - 1e-9


class TestTriggerProbabilityWithin:
    def test_zero_batches(self):
        assert BucketChainARL(2, 2).trigger_probability_within(0, 0.9) == 0.0

    def test_below_min_delay_is_zero(self):
        arl = BucketChainARL(2, 2)
        assert arl.trigger_probability_within(5, 0.99) == 0.0  # min is 6

    def test_certain_exceedance_at_min_delay(self):
        arl = BucketChainARL(2, 2)
        assert arl.trigger_probability_within(6, 1.0) == pytest.approx(1.0)

    def test_monotone_in_horizon(self):
        arl = BucketChainARL(2, 1)
        values = [
            arl.trigger_probability_within(m, 0.7) for m in (4, 8, 16, 64)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_converges_to_one(self):
        arl = BucketChainARL(1, 1)
        assert arl.trigger_probability_within(500, 0.5) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_matches_geometric_tail_structure(self):
        # K=1, D=1, p: trigger needs two successive... cross-check the
        # cumulative probability against brute-force enumeration.
        p = 0.6
        arl = BucketChainARL(1, 1)
        rng = np.random.default_rng(3)
        horizon = 10
        hits = 0
        trials = 40_000
        for _ in range(trials):
            chain = BucketChain(1, 1)
            for _ in range(horizon):
                if chain.record(rng.random() < p) is Transition.TRIGGER:
                    hits += 1
                    break
        assert hits / trials == pytest.approx(
            arl.trigger_probability_within(horizon, p), abs=0.01
        )


class TestSRAAIntegration:
    def test_exceedance_probabilities_from_exact_law(self, paper_model):
        from repro.ctmc.sample_mean import SampleMeanChain

        chain = SampleMeanChain(paper_model, 2)
        probs = sraa_exceedance_probabilities(
            chain.sf, mean=5.0, std=5.0, n_buckets=5
        )
        assert probs.shape == (5,)
        # Decreasing targets difficulty: p_0 > p_1 > ... and the deep
        # buckets are very hard to exceed when healthy.
        assert np.all(np.diff(probs) < 0)
        assert probs[0] > 0.3
        assert probs[4] < 1e-3

    def test_healthy_false_trigger_interval_explains_fig10(self, paper_model):
        """SRAA(2,5,3)'s healthy ARL is astronomically long -- the
        analytical reason multi-bucket configurations lose nothing at
        low load (Fig. 10)."""
        from repro.ctmc.sample_mean import SampleMeanChain

        chain = SampleMeanChain(paper_model, 2)
        probs = sraa_exceedance_probabilities(chain.sf, 5.0, 5.0, 5)
        arl_253 = BucketChainARL(5, 3).mean_observations_to_trigger(
            probs, sample_size=2
        )
        assert arl_253 > 1e6  # far beyond any replication length
        # While K=1 single-bucket chains false-trigger constantly.
        chain15 = SampleMeanChain(paper_model, 15)
        p15 = sraa_exceedance_probabilities(chain15.sf, 5.0, 5.0, 1)
        arl_1511 = BucketChainARL(1, 1).mean_observations_to_trigger(
            p15, sample_size=15
        )
        assert arl_1511 < 200

    def test_validation(self):
        with pytest.raises(ValueError):
            BucketChainARL(0, 1)
        with pytest.raises(ValueError):
            BucketChainARL(1, -1)
        arl = BucketChainARL(2, 1)
        with pytest.raises(ValueError):
            arl.mean_batches_to_trigger([0.5])  # wrong length
        with pytest.raises(ValueError):
            arl.mean_batches_to_trigger(1.5)
        with pytest.raises(ValueError):
            arl.trigger_probability_within(-1, 0.5)
        with pytest.raises(ValueError):
            arl.mean_observations_to_trigger(0.5, 0)


class TestCostToTrigger:
    def test_constant_cost_reduces_to_batches_times_cost(self):
        arl = BucketChainARL(3, 2)
        batches = arl.mean_batches_to_trigger(0.7)
        cost = arl.mean_cost_to_trigger(0.7, [5.0, 5.0, 5.0])
        assert cost == pytest.approx(5.0 * batches, rel=1e-9)

    def test_cheaper_deep_levels_reduce_total_cost(self):
        # SARAA-style: batch size shrinks with the level.
        arl = BucketChainARL(3, 1)
        probs = [0.9, 0.9, 0.9]
        flat = arl.mean_cost_to_trigger(probs, [10.0, 10.0, 10.0])
        shrinking = arl.mean_cost_to_trigger(probs, [10.0, 7.0, 4.0])
        assert shrinking < flat

    def test_certain_exceedance_closed_form(self):
        # Deterministic climb spends exactly D+1 batches per level.
        arl = BucketChainARL(2, 2)
        cost = arl.mean_cost_to_trigger(1.0, [4.0, 2.0])
        assert cost == pytest.approx(3 * 4.0 + 3 * 2.0)

    def test_impossible_is_infinite(self):
        arl = BucketChainARL(2, 1)
        assert arl.mean_cost_to_trigger([0.5, 0.0], [1.0, 1.0]) == float(
            "inf"
        )

    def test_validation(self):
        arl = BucketChainARL(2, 1)
        with pytest.raises(ValueError):
            arl.mean_cost_to_trigger(0.5, [1.0])  # wrong length
        with pytest.raises(ValueError):
            arl.mean_cost_to_trigger(0.5, [1.0, -1.0])


class TestCLTAIntegration:
    def test_healthy_arl_is_inverse_false_alarm_probability(
        self, paper_model
    ):
        from repro.core.buckets import CLTA
        from repro.core.sla import ServiceLevelObjective
        from repro.ctmc.sample_mean import (
            SampleMeanChain,
            clt_false_alarm_probability,
        )

        slo = ServiceLevelObjective(
            paper_model.response_time_mean(), paper_model.response_time_std()
        )
        policy = CLTA.from_false_alarm_rate(slo, sample_size=30)
        chain = policy.chain
        p = SampleMeanChain(paper_model, 30).sf(policy.threshold)
        arl = BucketChainARL(chain.n_buckets, chain.depth)
        assert arl.mean_batches_to_trigger(p) == pytest.approx(
            1 / clt_false_alarm_probability(paper_model, 30), rel=1e-9
        )


class TestSARAARunLength:
    def test_saraa_faster_than_sraa_under_severe_shift(self):
        from repro.experiments.arl_exp import (
            _config_run_lengths,
            saraa_run_length,
        )

        for n, K, D in ((2, 3, 5), (2, 5, 3), (6, 5, 1)):
            saraa = saraa_run_length(n, K, D, shift_sigma=4.0)
            sraa = _config_run_lengths(n, K, D)[3]
            assert saraa < sraa

    def test_saraa_healthy_arl_long(self):
        from repro.experiments.arl_exp import saraa_run_length

        assert saraa_run_length(2, 5, 3) > 1e5
