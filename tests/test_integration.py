"""Cross-module integration: simulation against exact theory.

These tests connect independently implemented subsystems -- the DES
simulator, the closed-form M/M/c model, the CTMC sample-mean chain and
the decision rules -- and check that they tell one consistent story.
They are the reproduction's strongest internal evidence: the simulator
was written against the paper's prose, the analytics against its
formulas, and here they must meet.
"""

import numpy as np
import pytest

from repro.core.buckets import CLTA
from repro.core.sla import PAPER_SLO
from repro.ctmc.sample_mean import SampleMeanChain
from repro.ecommerce.runner import simulate_mmc_response_times
from repro.queueing.mmc import MMcModel


@pytest.fixture(scope="module")
def rts_16() -> np.ndarray:
    """60,000 simulated M/M/16 response times at lambda = 1.6."""
    return simulate_mmc_response_times(1.6, 60_000, seed=1234)


@pytest.fixture(scope="module")
def model_16() -> MMcModel:
    return MMcModel(1.6, 0.2, 16)


class TestSimulatorVsClosedForm:
    def test_mean_matches_equation_2(self, rts_16, model_16):
        expected = model_16.response_time_mean()
        # Standard error of the mean over 60k nearly-iid samples.
        tolerance = 4 * model_16.response_time_std() / np.sqrt(60_000)
        assert abs(rts_16.mean() - expected) < tolerance + 0.02

    def test_std_matches_equation_3(self, rts_16, model_16):
        assert rts_16.std() == pytest.approx(
            model_16.response_time_std(), rel=0.03
        )

    @pytest.mark.parametrize("x", [2.0, 5.0, 10.0, 20.0])
    def test_cdf_matches_equation_1(self, rts_16, model_16, x):
        empirical = float((rts_16 <= x).mean())
        assert empirical == pytest.approx(
            model_16.response_time_cdf(x), abs=0.01
        )

    @pytest.mark.parametrize("load", [0.5, 4.0, 9.0])
    def test_other_loads(self, load):
        model = MMcModel.from_offered_load(load, 0.2, 16)
        rts = simulate_mmc_response_times(
            model.arrival_rate, 30_000, seed=int(load * 100)
        )
        assert rts.mean() == pytest.approx(
            model.response_time_mean(), rel=0.05
        )


class TestSampleMeanChainVsSimulation:
    def test_batch_mean_distribution(self, rts_16, model_16):
        # The mean of every 15 simulated RTs against the exact Fig. 4
        # absorption law.
        n = 15
        chain = SampleMeanChain(model_16, n)
        batches = rts_16[: (rts_16.size // n) * n].reshape(-1, n).mean(axis=1)
        for x in (4.0, 5.0, 6.5, 8.0):
            empirical = float((batches <= x).mean())
            assert empirical == pytest.approx(chain.cdf(x), abs=0.02)

    def test_clta_trigger_rate_matches_exact_false_alarm(
        self, rts_16, model_16
    ):
        # Feed a healthy RT stream to CLTA: its per-batch trigger rate
        # must match the exact eq.-4 tail probability (3.4 % at n=30),
        # which is the paper's whole Section-4.1 argument in one test.
        n = 30
        policy = CLTA(PAPER_SLO, sample_size=n, z=1.96)
        triggers = len(policy.observe_many(rts_16))
        batches = rts_16.size // n
        exact = SampleMeanChain(model_16, n).false_alarm_probability()
        # Note: PAPER_SLO rounds mu/sigma to 5.0; the exact model mean
        # is 5.0056, so tolerate a modest relative band.
        assert triggers / batches == pytest.approx(exact, rel=0.3)

    def test_larger_batches_trigger_less(self, rts_16):
        small = CLTA(PAPER_SLO, sample_size=15, z=1.96)
        large = CLTA(PAPER_SLO, sample_size=60, z=1.96)
        rate_small = len(small.observe_many(rts_16)) / (rts_16.size // 15)
        rate_large = len(large.observe_many(rts_16)) / (rts_16.size // 60)
        assert rate_large < rate_small


class TestEndToEndWorkflow:
    def test_calibrate_then_monitor_then_simulate(self):
        """The full user journey of the README."""
        from repro import (
            ECommerceSystem,
            PAPER_CONFIG,
            PoissonArrivals,
            SRAA,
            calibrate_slo,
        )

        # 1. Calibrate the SLO from a healthy period.
        healthy = simulate_mmc_response_times(1.0, 15_000, seed=77)
        slo = calibrate_slo(healthy, warmup=1_000)
        assert slo.mean == pytest.approx(5.0, abs=0.3)
        # 2. Deploy SRAA with the calibrated SLO on the aging system.
        system = ECommerceSystem(
            PAPER_CONFIG,
            PoissonArrivals(1.8),
            policy=SRAA(slo, sample_size=2, n_buckets=5, depth=3),
            seed=78,
        )
        managed = system.run(12_000)
        # 3. Compare with the unmanaged system.
        unmanaged = ECommerceSystem(
            PAPER_CONFIG, PoissonArrivals(1.8), seed=78
        ).run(12_000)
        assert managed.avg_response_time < unmanaged.avg_response_time / 3
        assert 0.0 < managed.loss_fraction < 0.2

    def test_advisor_tradeoff_depends_on_loss_penalty(self):
        """Tuning round trip: the winner tracks the operator's weights.

        With low-load loss priced harshly (losing healthy-traffic
        transactions is unacceptable), the balanced zero-loss (2,5,3)
        wins, as the paper concludes; priced cheaply, the trigger-happy
        (30,1,1) with its better high-load RT wins in this substrate.
        """
        from repro import ParameterAdvisor, PAPER_CONFIG, PAPER_SLO

        def winner(loss_penalty):
            advisor = ParameterAdvisor(
                PAPER_CONFIG,
                PAPER_SLO,
                transactions=2_000,
                replications=1,
                seed=7,
                loss_penalty=loss_penalty,
            )
            best = advisor.recommend([(2, 5, 3), (30, 1, 1)])
            return (best.n, best.K, best.D)

        assert winner(loss_penalty=10_000.0) == (2, 5, 3)
        assert winner(loss_penalty=0.0) == (30, 1, 1)
