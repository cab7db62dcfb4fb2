"""Policy combinators."""

import pytest

from repro.core.baselines import PeriodicRejuvenation
from repro.core.buckets import CLTA, SRAA
from repro.core.composite import AllOf, AnyOf, MajorityOf
from repro.core.sla import ServiceLevelObjective
from repro.core.threshold import DeterministicThreshold

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestAnyOf:
    def test_fires_on_first_member(self):
        combined = AnyOf(
            [DeterministicThreshold(100.0), DeterministicThreshold(10.0)]
        )
        assert combined.observe(50.0) is True

    def test_silent_when_no_member_fires(self):
        combined = AnyOf(
            [DeterministicThreshold(100.0), DeterministicThreshold(60.0)]
        )
        assert combined.observe_many([5.0] * 50) == []

    def test_members_each_see_every_observation(self):
        slow = CLTA(SLO, sample_size=3, z=1.96)
        combined = AnyOf([slow])
        # Three observations complete slow's batch.
        assert combined.observe(100.0) is False
        assert combined.observe(100.0) is False
        assert combined.observe(100.0) is True


class TestAllOf:
    def test_needs_both(self):
        threshold = DeterministicThreshold(20.0)
        sraa = SRAA(SLO, sample_size=1, n_buckets=1, depth=1)
        combined = AllOf([threshold, sraa], memory=10)
        # Values above 20 fire the threshold immediately and fill SRAA
        # (needs d > 1, i.e. two batches).
        assert combined.observe(50.0) is False  # only threshold alarmed
        assert combined.observe(50.0) is True   # SRAA overflowed too

    def test_latch_expires(self):
        fast = DeterministicThreshold(20.0)
        slow = SRAA(SLO, sample_size=1, n_buckets=1, depth=3)
        combined = AllOf([fast, slow], memory=2)
        # One spike alarms `fast`, then quiet observations expire the
        # latch before `slow` accumulates its 4 exceedances.
        values = [50.0] + [1.0] * 10 + [6.0] * 4
        triggered = combined.observe_many(values)
        assert triggered == []

    def test_reset_after_trigger(self):
        a = DeterministicThreshold(10.0)
        b = DeterministicThreshold(20.0)
        combined = AllOf([a, b], memory=5)
        assert combined.observe(30.0) is True
        assert combined.alarmed_count() == 0


class TestMajorityOf:
    def test_two_of_three(self):
        members = [
            DeterministicThreshold(10.0),
            DeterministicThreshold(20.0),
            DeterministicThreshold(1_000.0),  # never fires
        ]
        combined = MajorityOf(members, quorum=2, memory=5)
        assert combined.observe(30.0) is True

    def test_quorum_not_met(self):
        members = [
            DeterministicThreshold(10.0),
            DeterministicThreshold(1_000.0),
            DeterministicThreshold(1_000.0),
        ]
        combined = MajorityOf(members, quorum=2, memory=5)
        assert combined.observe_many([30.0] * 20) == []

    def test_periodic_members_align(self):
        combined = MajorityOf(
            [PeriodicRejuvenation(3), PeriodicRejuvenation(5)],
            quorum=2,
            memory=1,
        )
        triggers = combined.observe_many([0.0] * 15)
        assert triggers  # both fire on observation 15 (lcm of 3 and 5)


class TestValidationAndIntrospection:
    def test_validation(self):
        with pytest.raises(ValueError):
            AnyOf([])
        with pytest.raises(ValueError):
            MajorityOf([DeterministicThreshold(1.0)], quorum=2)
        with pytest.raises(ValueError):
            MajorityOf([DeterministicThreshold(1.0)], quorum=0)
        with pytest.raises(ValueError):
            AllOf([DeterministicThreshold(1.0)], memory=0)

    def test_members_accessor(self):
        a, b = DeterministicThreshold(1.0), DeterministicThreshold(2.0)
        assert AnyOf([a, b]).members == [a, b]

    def test_describe_mentions_members(self):
        combined = AllOf(
            [DeterministicThreshold(10.0), CLTA(SLO, 30, 1.96)], memory=9
        )
        text = combined.describe()
        assert "AllOf" in text
        assert "CLTA" in text
        assert "memory=9" in text

    def test_reset_cascades(self):
        sraa = SRAA(SLO, sample_size=1, n_buckets=2, depth=2)
        combined = AnyOf([sraa])
        combined.observe_many([50.0] * 3)
        assert sraa.level > 0 or sraa.chain.fill > 0
        combined.reset()
        assert sraa.level == 0 and sraa.chain.fill == 0
