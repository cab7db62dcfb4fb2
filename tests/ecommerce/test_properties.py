"""Property-based invariants of the full simulation model.

Hypothesis drives the simulator through random loads, policies and
configuration corners; the invariants below must hold for every single
run, not just the paper's operating points.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baselines import PeriodicRejuvenation
from repro.core.buckets import CLTA, SARAA, SRAA
from repro.core.sla import PAPER_SLO
from repro.ecommerce.config import PAPER_CONFIG, SystemConfig
from repro.ecommerce.runner import run_once
from repro.ecommerce.workload import PoissonArrivals

N_TRANSACTIONS = 600

policy_strategy = st.one_of(
    st.none().map(lambda _: None),
    st.builds(
        SRAA,
        st.just(PAPER_SLO),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    st.builds(
        SARAA,
        st.just(PAPER_SLO),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    ),
    st.builds(
        CLTA,
        st.just(PAPER_SLO),
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.5, max_value=3.0),
    ),
    st.builds(PeriodicRejuvenation, st.integers(min_value=5, max_value=400)),
)


@st.composite
def config_strategy(draw):
    return dataclasses.replace(
        PAPER_CONFIG,
        gc_pause_s=draw(st.sampled_from([0.0, 10.0, 60.0])),
        rejuvenation_downtime_s=draw(st.sampled_from([0.0, 30.0])),
        rejuvenation_kills_queued=draw(st.booleans()),
        gc_freezes_new_threads=draw(st.booleans()),
        enable_gc=draw(st.booleans()),
        enable_overhead=draw(st.booleans()),
    )


class TestInvariants:
    @given(
        load=st.floats(min_value=0.2, max_value=10.0),
        policy=policy_strategy,
        config=config_strategy(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_invariants(self, load, policy, config, seed):
        rate = config.arrival_rate_for_load(load)
        result = run_once(
            config,
            PoissonArrivals(rate),
            policy,
            N_TRANSACTIONS,
            seed=seed,
            collect_response_times=True,
        )
        # Conservation: every generated transaction resolves exactly once.
        assert result.completed + result.lost == N_TRANSACTIONS
        assert result.arrivals == N_TRANSACTIONS
        # Loss accounting is a fraction of the measured window.
        assert 0.0 <= result.loss_fraction <= 1.0
        assert result.lost == round(result.loss_fraction * N_TRANSACTIONS)
        # Response times are physical: non-negative, and bounded below
        # by zero waiting (a completed RT can be arbitrarily small but
        # never negative); the maximum tracks the recorded stream.
        assert result.response_times is not None
        assert len(result.response_times) == result.completed
        assert all(rt >= 0.0 for rt in result.response_times)
        if result.response_times:
            assert result.max_response_time == pytest.approx(
                max(result.response_times)
            )
        # No policy, no loss (nothing ever kills a transaction).
        if policy is None and config.rejuvenation_downtime_s == 0.0:
            assert result.lost == 0
        # The clock moved forward.
        assert result.sim_duration_s > 0.0

    @given(
        load=st.floats(min_value=0.2, max_value=9.5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, load, seed):
        rate = PAPER_CONFIG.arrival_rate_for_load(load)

        def once():
            return run_once(
                PAPER_CONFIG,
                PoissonArrivals(rate),
                SRAA(PAPER_SLO, 2, 2, 2),
                N_TRANSACTIONS,
                seed=seed,
            )

        a, b = once(), once()
        assert a.avg_response_time == b.avg_response_time
        assert a.lost == b.lost
        assert a.rejuvenations == b.rejuvenations
        assert a.gc_count == b.gc_count

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_gc_disabled_means_no_gc(self, seed):
        config = dataclasses.replace(PAPER_CONFIG, enable_gc=False)
        result = run_once(
            config, PoissonArrivals(1.6), None, N_TRANSACTIONS, seed=seed
        )
        assert result.gc_count == 0

    @given(
        period=st.integers(min_value=10, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_periodic_policy_trigger_count(self, period, seed):
        result = run_once(
            PAPER_CONFIG,
            PoissonArrivals(1.0),
            PeriodicRejuvenation(period=period),
            N_TRANSACTIONS,
            seed=seed,
        )
        # One trigger per `period` completions, within bookkeeping slack
        # (lost transactions do not feed the policy).
        assert result.rejuvenations <= N_TRANSACTIONS // period + 1
