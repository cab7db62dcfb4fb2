"""The Fig. 6 bucket chain, checked against a pseudo-code walkthrough."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buckets import BucketChain, Transition


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            BucketChain(n_buckets=0, depth=1)
        with pytest.raises(ValueError):
            BucketChain(n_buckets=1, depth=-1)

    def test_initial_state(self):
        chain = BucketChain(3, 2)
        assert chain.level == 0
        assert chain.fill == 0

    def test_min_observations(self):
        # Each bucket absorbs D + 1 net exceedances (Fig. 6: d > D).
        assert BucketChain(5, 3).min_observations_to_trigger == 20
        assert BucketChain(1, 1).min_observations_to_trigger == 2


class TestWithinBucket:
    def test_ball_added_on_exceedance(self):
        chain = BucketChain(2, 3)
        assert chain.record(True) is Transition.NONE
        assert chain.fill == 1

    def test_ball_removed_otherwise(self):
        chain = BucketChain(2, 3)
        chain.record(True)
        chain.record(False)
        assert chain.fill == 0

    def test_fill_floors_at_zero_in_bucket_zero(self):
        chain = BucketChain(2, 3)
        for _ in range(5):
            assert chain.record(False) is Transition.NONE
        assert chain.fill == 0
        assert chain.level == 0


class TestOverflowUnderflow:
    def test_depth_zero_fires_on_first_exceedance(self):
        # CLTA's chain: K = 1, D = 0 overflows on one exceedance.
        chain = BucketChain(1, 0)
        assert chain.record(False) is Transition.NONE
        assert chain.record(True) is Transition.TRIGGER
        assert (chain.level, chain.fill) == (0, 0)

    def test_overflow_needs_depth_plus_one(self):
        chain = BucketChain(2, 3)
        for _ in range(3):
            assert chain.record(True) is Transition.NONE
        assert chain.record(True) is Transition.LEVEL_UP
        assert chain.level == 1
        assert chain.fill == 0

    def test_underflow_restores_full_previous_bucket(self):
        chain = BucketChain(2, 3)
        for _ in range(4):
            chain.record(True)  # overflow into bucket 1
        assert chain.record(False) is Transition.LEVEL_DOWN
        assert chain.level == 0
        assert chain.fill == 3  # refilled to D

    def test_trigger_on_last_bucket(self):
        chain = BucketChain(1, 1)
        assert chain.record(True) is Transition.NONE
        assert chain.record(True) is Transition.TRIGGER
        assert chain.level == 0
        assert chain.fill == 0
        assert chain.triggers == 1

    def test_full_climb_to_trigger(self):
        chain = BucketChain(3, 2)
        transitions = [chain.record(True) for _ in range(9)]
        assert transitions[:2] == [Transition.NONE] * 2
        assert transitions[2] is Transition.LEVEL_UP
        assert transitions[5] is Transition.LEVEL_UP
        assert transitions[8] is Transition.TRIGGER

    def test_oscillation_does_not_trigger(self):
        chain = BucketChain(2, 2)
        for _ in range(50):
            chain.record(True)
            chain.record(False)
        assert chain.triggers == 0

    def test_reset(self):
        chain = BucketChain(3, 2)
        for _ in range(4):
            chain.record(True)
        chain.reset()
        assert chain.level == 0
        assert chain.fill == 0


class TestPseudoCodeWalkthrough:
    def test_figure6_trace(self):
        """A hand-computed trace of Fig. 6 with K=2, D=1."""
        chain = BucketChain(2, 1)
        # x > target: d 0->1 (<= D): none.
        assert chain.record(True) is Transition.NONE
        # x > target: d 1->2 > D: overflow, d=0, N=1.
        assert chain.record(True) is Transition.LEVEL_UP
        # x <= target: d 0->-1 < 0, N>0: underflow, d=D=1, N=0.
        assert chain.record(False) is Transition.LEVEL_DOWN
        assert (chain.level, chain.fill) == (0, 1)
        # Two exceedances: d 1->2 > D: overflow to N=1 again.
        assert chain.record(True) is Transition.LEVEL_UP
        # Two more: d=1 then d=2 > D: N=2 == K: trigger + reset.
        assert chain.record(True) is Transition.NONE
        assert chain.record(True) is Transition.TRIGGER
        assert (chain.level, chain.fill) == (0, 0)


class TestInvariants:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.lists(st.booleans(), max_size=300),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_state_stays_in_bounds(self, K, D, outcomes):
        chain = BucketChain(K, D)
        for outcome in outcomes:
            chain.record(outcome)
            assert 0 <= chain.level < K
            assert 0 <= chain.fill <= D

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_all_exceedances_trigger_at_min_delay(self, K, D):
        chain = BucketChain(K, D)
        steps = 0
        while True:
            steps += 1
            if chain.record(True) is Transition.TRIGGER:
                break
        assert steps == chain.min_observations_to_trigger

    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.lists(st.booleans(), max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_trigger_only_after_min_delay(self, K, D, outcomes):
        chain = BucketChain(K, D)
        minimum = chain.min_observations_to_trigger
        for i, outcome in enumerate(outcomes):
            result = chain.record(outcome)
            if result is Transition.TRIGGER:
                assert i + 1 >= minimum
                break
