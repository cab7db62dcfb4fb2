"""Replication harness behaviour."""

import numpy as np
import pytest

from repro.core.buckets import SRAA
from repro.core.sla import ServiceLevelObjective
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import (
    run_once,
    run_replications,
    simulate_mmc_response_times,
)
from repro.ecommerce.workload import PoissonArrivals

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestRunOnce:
    def test_returns_result(self):
        result = run_once(
            PAPER_CONFIG, PoissonArrivals(1.0), None, 1_000, seed=0
        )
        assert result.completed + result.lost == 1_000


class TestRunReplications:
    def test_replication_count(self):
        replicated = run_replications(
            PAPER_CONFIG,
            arrival=lambda: PoissonArrivals(1.0),
            policy=lambda: None,
            n_transactions=800,
            replications=3,
            seed=1,
        )
        assert replicated.n_replications == 3

    def test_replications_are_independent(self):
        replicated = run_replications(
            PAPER_CONFIG,
            arrival=lambda: PoissonArrivals(1.6),
            policy=lambda: None,
            n_transactions=2_000,
            replications=3,
            seed=2,
        )
        rts = [r.avg_response_time for r in replicated.runs]
        assert len(set(rts)) == 3  # distinct draws per replication

    def test_fresh_policy_per_replication(self):
        built = []

        def factory():
            policy = SRAA(SLO, sample_size=1, n_buckets=1, depth=1)
            built.append(policy)
            return policy

        run_replications(
            PAPER_CONFIG,
            arrival=lambda: PoissonArrivals(1.8),
            policy=factory,
            n_transactions=500,
            replications=2,
            seed=3,
        )
        assert len(built) == 2
        assert built[0] is not built[1]

    def test_seed_controls_outcome(self):
        def run(seed):
            return run_replications(
                PAPER_CONFIG,
                arrival=lambda: PoissonArrivals(1.6),
                policy=lambda: None,
                n_transactions=1_000,
                replications=2,
                seed=seed,
            ).avg_response_time

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_replications(
                PAPER_CONFIG,
                arrival=lambda: PoissonArrivals(1.0),
                policy=lambda: None,
                n_transactions=100,
                replications=0,
            )


class TestMMcShortcut:
    def test_returns_all_response_times(self):
        rts = simulate_mmc_response_times(1.6, 2_000, seed=4)
        assert isinstance(rts, np.ndarray)
        assert rts.shape == (2_000,)

    def test_mean_matches_theory(self):
        rts = simulate_mmc_response_times(1.6, 30_000, seed=5)
        assert rts.mean() == pytest.approx(5.006, rel=0.03)

    def test_degradation_mechanisms_disabled(self):
        # No GC: no response time can reach the 60 s pause magnitude
        # at this load.
        rts = simulate_mmc_response_times(0.5, 5_000, seed=6)
        assert rts.max() < 60.0
