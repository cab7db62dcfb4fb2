"""Horizon-free scoring from trace records (the report's robustness
table): ground truth recovered from each run's own fault events."""

import math

import pytest

from repro.faults.campaign import (
    AGING_FAULT_KINDS,
    campaign_runs_from_records,
    degraded_intervals_from_records,
    score_records,
)


def _meta(run, scenario="aging_onset", policy="SRAA", rep=0, **summary):
    data = {
        "arrivals": 100,
        "completed": 90,
        "lost": 10,
        "avg_response_time": 5.0,
        "loss_fraction": 0.1,
        "gc_count": 0,
        "rejuvenations": 0,
        "sim_duration_s": 3600.0,
    }
    data.update(summary)
    return {
        "run": run,
        "ts": 0.0,
        "type": "run.meta",
        "tag": ["faults", scenario, policy, rep],
        "data": data,
    }


def _fault(run, ts, kind, cleared=False):
    return {
        "run": run,
        "ts": ts,
        "type": "fault.cleared" if cleared else "fault.injected",
        "data": {"kind": kind},
    }


def _rejuvenation(run, ts):
    return {"run": run, "ts": ts, "type": "system.rejuvenation", "data": {}}


def _complete(run, ts):
    return {
        "run": run,
        "ts": ts,
        "type": "request.complete",
        "data": {"response_time": 5.0},
    }


class TestDegradedIntervals:
    def test_aging_kinds_open_intervals(self):
        assert AGING_FAULT_KINDS == (
            "aging",
            "contamination",
            "erosion",
            "slowdown",
        )
        records = [_fault(0, 100.0, "slowdown")]
        assert degraded_intervals_from_records(records) == (
            (100.0, math.inf),
        )
        records = [_fault(1, 0.0, "erosion")]
        assert degraded_intervals_from_records(records) == ((0.0, math.inf),)

    def test_cleared_fault_closes_the_interval(self):
        records = [
            _fault(0, 100.0, "contamination"),
            _fault(0, 400.0, "contamination", cleared=True),
        ]
        assert degraded_intervals_from_records(records) == ((100.0, 400.0),)

    def test_workload_faults_are_healthy_ground_truth(self):
        records = [
            _fault(0, 50.0, "workload_shift"),
            _fault(0, 60.0, "workload_ramp"),
            _fault(0, 70.0, "surge"),
            _fault(0, 80.0, "crash"),
            _fault(0, 90.0, "hang"),
        ]
        assert degraded_intervals_from_records(records) == ()


class TestScoreRecords:
    def test_detection_and_false_alarm_split(self):
        records = [
            _meta(0, rejuvenations=2),
            _complete(0, 10.0),
            _fault(0, 1000.0, "slowdown"),
            _rejuvenation(0, 200.0),  # before the fault: false alarm
            _rejuvenation(0, 1150.0),  # inside: detection, 150 s latency
        ]
        (score,) = score_records(records)
        assert (score.scenario, score.policy) == ("aging_onset", "SRAA")
        assert score.detected == 1 and score.missed == 0
        assert score.mean_detection_latency_s == pytest.approx(150.0)
        assert score.false_alarms == 1
        # Healthy time is everything outside [1000 s, end of run].
        assert score.false_alarms_per_healthy_hour == pytest.approx(3.6)

    def test_groups_cells_across_replications(self):
        records = [
            _meta(0, policy="SRAA", rep=0),
            _complete(0, 10.0),
            _fault(0, 1000.0, "slowdown"),
            _meta(1, policy="SRAA", rep=1),
            _complete(1, 10.0),
            _fault(1, 1000.0, "slowdown"),
            _meta(2, policy="ADAPTIVE", rep=0),
            _complete(2, 10.0),
        ]
        scores = {(s.scenario, s.policy): s for s in score_records(records)}
        assert scores[("aging_onset", "SRAA")].replications == 2
        assert scores[("aging_onset", "SRAA")].missed == 2
        assert scores[("aging_onset", "ADAPTIVE")].replications == 1

    def test_non_campaign_runs_are_skipped(self):
        records = [
            {"run": 0, "ts": 0.0, "type": "run.meta", "tag": None, "data": {}},
        ]
        assert score_records(records) == ()
        assert campaign_runs_from_records(records) == []

    def test_missing_rejuvenation_events_raise(self):
        records = [_meta(0, rejuvenations=3)]
        with pytest.raises(ValueError, match="trace-level"):
            score_records(records)

    def test_missing_completion_events_raise(self):
        # A decisions-level trace of a policy that never fires: no
        # rejuvenation is missing, but the run's completions are.
        records = [_meta(0), _fault(0, 1000.0, "slowdown")]
        with pytest.raises(
            ValueError,
            match="x.rcol: run 0 reports completions .*--trace-level",
        ):
            score_records(records, origin="x.rcol")
