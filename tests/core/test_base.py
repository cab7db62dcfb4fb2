"""Policy interface helpers: the batch buffer, observe_many, replay."""

import numpy as np
import pytest

from repro.core.base import BatchBuffer
from repro.core.buckets import CLTA, SRAA
from repro.core.sla import PAPER_SLO, ServiceLevelObjective
from repro.ecommerce.runner import simulate_mmc_response_times


class TestBatchBuffer:
    def test_emits_mean_when_full(self):
        buffer = BatchBuffer(3)
        assert buffer.push(1.0) is None
        assert buffer.push(2.0) is None
        assert buffer.push(6.0) == pytest.approx(3.0)

    def test_resets_between_batches(self):
        buffer = BatchBuffer(2)
        buffer.push(1.0)
        buffer.push(3.0)
        assert buffer.push(10.0) is None
        assert buffer.push(20.0) == pytest.approx(15.0)
        assert buffer.batches_completed == 2

    def test_size_one_emits_every_value(self):
        buffer = BatchBuffer(1)
        assert buffer.push(4.2) == pytest.approx(4.2)

    def test_pending_counter(self):
        buffer = BatchBuffer(3)
        buffer.push(1.0)
        assert buffer.pending == 1
        buffer.push(1.0)
        buffer.push(1.0)
        assert buffer.pending == 0

    def test_resize_discards_partial_by_default(self):
        buffer = BatchBuffer(4)
        buffer.push(100.0)
        buffer.resize(2)
        assert buffer.pending == 0
        buffer.push(1.0)
        assert buffer.push(3.0) == pytest.approx(2.0)

    def test_clear(self):
        buffer = BatchBuffer(3)
        buffer.push(1.0)
        buffer.clear()
        assert buffer.pending == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchBuffer(0)
        with pytest.raises(ValueError):
            BatchBuffer(2).resize(0)


class TestObserveMany:
    def test_returns_trigger_indices(self):
        slo = ServiceLevelObjective(mean=5.0, std=5.0)
        policy = CLTA(slo, sample_size=2, z=1.96)
        # Threshold: 5 + 1.96*5/sqrt(2) = 11.93.
        values = [1.0, 1.0, 20.0, 20.0, 1.0, 1.0, 30.0, 30.0]
        assert policy.observe_many(values) == [3, 7]

    def test_no_triggers(self):
        slo = ServiceLevelObjective(mean=5.0, std=5.0)
        policy = CLTA(slo, sample_size=2, z=1.96)
        assert policy.observe_many([1.0] * 10) == []


class TestReplay:
    """Offline replay is ``policy.reset()`` then ``observe_many``."""

    def test_healthy_trace_triggers_rarely(self):
        rts = simulate_mmc_response_times(1.6, 10_000, seed=2)
        policy = SRAA(PAPER_SLO, 2, 5, 3)
        assert policy.observe_many(rts) == []

    def test_degraded_trace_triggers(self):
        rng = np.random.default_rng(3)
        degraded = rng.exponential(40.0, size=2_000)
        assert SRAA(PAPER_SLO, 2, 5, 3).observe_many(degraded)

    def test_policy_reset_before_replay(self):
        policy = CLTA(PAPER_SLO, sample_size=4, z=1.96)
        policy.observe(100.0)  # stale partial batch
        policy.reset()
        # A fresh batch of four: exactly one trigger at index 3.
        assert policy.observe_many([100.0, 100.0, 100.0, 100.0]) == [3]
