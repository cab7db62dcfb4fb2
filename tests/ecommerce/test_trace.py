"""Trace recording, persistence and offline policy replay."""

import numpy as np
import pytest

from repro.core.buckets import CLTA, SRAA
from repro.core.sla import PAPER_SLO
from repro.ecommerce.config import PAPER_CONFIG
from repro.ecommerce.runner import run_once, simulate_mmc_response_times
from repro.ecommerce.trace import (
    RecordingArrivals,
    load_trace,
    save_trace,
)
from repro.ecommerce.workload import PoissonArrivals


class TestRecordingArrivals:
    def test_records_what_it_hands_out(self):
        recorder = RecordingArrivals(PoissonArrivals(1.0))
        rng = np.random.default_rng(0)
        produced = [recorder.interarrival(rng) for _ in range(50)]
        assert recorder.recorded == produced

    def test_replay_reproduces_the_run_exactly(self):
        # Record one stochastic run, replay the frozen trace with the
        # same service seed: identical outcome.
        recorder = RecordingArrivals(PoissonArrivals(1.6))
        original = run_once(
            PAPER_CONFIG, recorder, None, 2_000, seed=5
        )
        replayed = run_once(
            PAPER_CONFIG, recorder.to_trace(), None, 2_000, seed=5
        )
        assert replayed.avg_response_time == original.avg_response_time
        assert replayed.gc_count == original.gc_count

    def test_mean_rate_delegates(self):
        recorder = RecordingArrivals(PoissonArrivals(1.6))
        assert recorder.mean_rate() == 1.6

    def test_empty_recording_rejected(self):
        with pytest.raises(ValueError):
            RecordingArrivals(PoissonArrivals(1.0)).to_trace()


class TestPersistence:
    def test_round_trip(self, tmp_path):
        values = [0.5, 1.25, 0.0, 3.75]
        path = tmp_path / "trace.txt"
        save_trace(values, str(path))
        assert load_trace(str(path)) == values

    def test_round_trip_preserves_precision(self, tmp_path):
        rng = np.random.default_rng(1)
        values = list(rng.exponential(1.0, size=100))
        path = tmp_path / "trace.txt"
        save_trace(values, str(path))
        assert load_trace(str(path)) == values

    def test_empty_save_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace([], str(tmp_path / "x.txt"))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            load_trace(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gappy.txt"
        path.write_text("1.0\n\n2.0\n")
        assert load_trace(str(path)) == [1.0, 2.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            load_trace(str(path))


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
