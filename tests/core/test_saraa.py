"""SARAA: Fig. 7 semantics, acceleration schedules, standard-error targets."""

import math

import pytest

from repro.core.buckets import (
    SARAA,
    Transition,
    geometric_acceleration,
    linear_acceleration,
    no_acceleration,
)
from repro.core.sla import ServiceLevelObjective

SLO = ServiceLevelObjective(mean=5.0, std=5.0)


class TestSchedule:
    @pytest.mark.parametrize(
        "n_orig, level, K, expected",
        [
            (5, 0, 5, 5),
            (5, 1, 5, 4),   # floor(1 + 4 * 0.8)
            (5, 2, 5, 3),
            (5, 3, 5, 2),
            (5, 4, 5, 1),   # floor(1 + 4 * 0.2) = floor(1.8)
            (5, 5, 5, 1),
            (10, 0, 5, 10),
            (10, 2, 5, 6),  # floor(1 + 9 * 0.6) = floor(6.4)
            (10, 4, 5, 2),  # floor(1 + 9 * 0.2) = floor(2.8)
            (1, 3, 5, 1),
        ],
    )
    def test_linear_values(self, n_orig, level, K, expected):
        assert linear_acceleration(n_orig, level, K) == expected

    def test_linear_always_at_least_one(self):
        for level in range(6):
            assert linear_acceleration(2, level, 5) >= 1

    def test_no_acceleration(self):
        assert no_acceleration(10, 4, 5) == 10

    def test_geometric(self):
        assert geometric_acceleration(10, 0, 5) == 10
        assert geometric_acceleration(10, 1, 5) == 5
        assert geometric_acceleration(10, 2, 5) == 2
        assert geometric_acceleration(10, 5, 5) == 1

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            linear_acceleration(0, 0, 5)
        with pytest.raises(ValueError):
            linear_acceleration(5, 7, 5)


class TestTargets:
    def test_uses_standard_error(self):
        policy = SARAA(SLO, sample_size=4, n_buckets=3, depth=1)
        # Level 0: mu + 0 * sigma/sqrt(4) = 5.
        assert policy.current_target() == 5.0
        policy.observe_many([100.0] * 8)  # two exceeding batches -> level 1
        assert policy.level == 1
        n_now = policy.current_sample_size
        assert policy.current_target() == pytest.approx(
            5.0 + 5.0 / math.sqrt(n_now)
        )

    def test_targets_easier_than_sraa_for_same_level(self):
        # sigma/sqrt(n) < sigma for n > 1.
        policy = SARAA(SLO, sample_size=4, n_buckets=3, depth=1)
        policy.observe_many([100.0] * 8)
        assert policy.current_target() < SLO.shift_threshold(policy.level)


class TestAcceleration:
    def test_batch_shrinks_on_level_up(self):
        policy = SARAA(SLO, sample_size=10, n_buckets=5, depth=1)
        assert policy.current_sample_size == 10
        policy.observe_many([100.0] * 20)  # two batches -> level 1
        assert policy.level == 1
        assert policy.current_sample_size == linear_acceleration(10, 1, 5)

    def test_batch_grows_back_on_level_down(self):
        policy = SARAA(SLO, sample_size=10, n_buckets=5, depth=1)
        policy.observe_many([100.0] * 20)  # -> level 1, n = 8
        n_level1 = policy.current_sample_size
        # Enough low batches to underflow back to level 0.
        while policy.level == 1:
            policy.observe_many([0.0] * n_level1)
            n_level1 = policy.current_sample_size
        assert policy.level == 0
        assert policy.current_sample_size == 10

    def test_trigger_restores_original_sample_size(self):
        policy = SARAA(SLO, sample_size=10, n_buckets=2, depth=1)
        observations = 0
        while True:
            observations += 1
            if policy.observe(100.0):
                break
        assert policy.current_sample_size == 10
        assert policy.level == 0

    def test_acceleration_reduces_detection_time(self):
        def observations_to_trigger(policy):
            count = 0
            while True:
                count += 1
                if policy.observe(100.0):
                    return count

        accelerated = SARAA(SLO, sample_size=10, n_buckets=5, depth=1)
        flat = SARAA(
            SLO, sample_size=10, n_buckets=5, depth=1,
            schedule=no_acceleration,
        )
        assert observations_to_trigger(accelerated) < observations_to_trigger(
            flat
        )

    def test_custom_schedule_is_used(self):
        policy = SARAA(
            SLO, sample_size=8, n_buckets=4, depth=1,
            schedule=geometric_acceleration,
        )
        policy.observe_many([100.0] * 16)
        assert policy.level == 1
        assert policy.current_sample_size == 4


class TestCarryPartial:
    def test_default_discards_partial_batch_on_resize(self):
        policy = SARAA(SLO, sample_size=3, n_buckets=3, depth=1)
        policy.observe_many([100.0] * 6)  # level 1, n becomes 2
        policy.observe(100.0)  # partial
        before = policy.buffer.pending
        # Force a level change via a completed batch of lows.
        policy.observe(0.0)
        assert policy.buffer.pending == 0 or policy.buffer.pending < before + 1


class TestLifecycle:
    def test_reset(self):
        policy = SARAA(SLO, sample_size=10, n_buckets=5, depth=1)
        policy.observe_many([100.0] * 20)
        policy.reset()
        assert policy.level == 0
        assert policy.current_sample_size == 10
        assert policy.buffer.pending == 0

    def test_low_values_never_trigger(self):
        policy = SARAA(SLO, sample_size=5, n_buckets=3, depth=2)
        assert policy.observe_many([1.0] * 600) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            SARAA(SLO, sample_size=0, n_buckets=1, depth=1)
        with pytest.raises(ValueError, match="K >= 1"):
            SARAA(SLO, sample_size=2, n_buckets=0, depth=1)
        # The chain accepts D = 0 (CLTA), SARAA keeps D >= 1.
        with pytest.raises(ValueError, match="D >= 1"):
            SARAA(SLO, sample_size=2, n_buckets=1, depth=0)

    def test_describe(self):
        policy = SARAA(SLO, sample_size=2, n_buckets=5, depth=3)
        assert policy.describe() == "SARAA(n_orig=2, K=5, D=3)"
