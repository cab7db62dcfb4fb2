"""The alert engine: transitions, provenance, deterministic replay.

Acceptance pins for the tentpole: replaying the synthetic campaign
trace (scripted aging in ``[0.4 h, 0.7 h]``) opens exactly one burn
incident per run inside the degraded window and closes it on recovery,
with **zero** incidents over the healthy prefix of the same trace --
and the whole incident table is byte-identical across replays.
"""

import pytest

from repro.obs.columnar.query import as_query
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.sentinel import AlertEngine, AlertLedger, BurnRateRule
from repro.obs.sentinel.engine import replay_trace

from .test_rules import (
    BASELINE,
    DEGRADED,
    FakeLedger,
    burn_rule,
    entry,
    snap,
)

HORIZON = 3600.0
INJECT_TS = 0.4 * HORIZON  # 1440 s
CLEAR_TS = 0.7 * HORIZON  # 2520 s


def fresh_engine(**kwargs):
    kwargs.setdefault("rules", [burn_rule()])
    return AlertEngine(**kwargs)


class TestTransitions:
    def test_open_refresh_close(self):
        engine = fresh_engine()
        engine.observe_snapshot(snap(10.0, 10, 0))
        assert engine.open_count == 0
        engine.observe_snapshot(snap(20.0, 20, 20))  # fires
        assert engine.open_count == 1
        (incident,) = engine.incidents()
        assert incident["id"] == "inc-0001"
        assert incident["status"] == "open"
        assert incident["opened_ts"] == 20.0
        engine.observe_snapshot(snap(30.0, 30, 30))  # still firing
        assert engine.open_count == 1  # refreshed, not duplicated
        (incident,) = engine.incidents()
        assert incident["updates"] == 1
        engine.observe_snapshot(snap(140.0, 140, 30))  # recovered
        assert engine.open_count == 0
        (incident,) = engine.incidents()
        assert incident["status"] == "closed"
        assert incident["close_reason"] == "resolved"
        assert incident["closed_ts"] == 140.0

    def test_incident_ids_are_sequential(self):
        engine = fresh_engine()
        engine.observe_snapshot(snap(20.0, 20, 20, run="a"))
        engine.observe_snapshot(snap(20.0, 20, 20, run="b"))
        assert [i["id"] for i in engine.incidents()] == [
            "inc-0001",
            "inc-0002",
        ]

    def test_resolve_target_closes_as_run_ended(self):
        engine = fresh_engine()
        engine.observe_snapshot(snap(20.0, 20, 20))
        engine.resolve_target("r1", reason="run_ended")
        (incident,) = engine.incidents()
        assert incident["status"] == "closed"
        assert incident["close_reason"] == "run_ended"
        assert incident["closed_ts"] == 20.0  # last observation, no clock
        # Burn state for the finished tag was forgotten too.
        assert engine.rules[0]._windows == {}

    def test_payload_counts(self):
        engine = fresh_engine()
        engine.observe_snapshot(snap(20.0, 20, 20, run="a"))
        engine.observe_snapshot(snap(20.0, 20, 20, run="b"))
        engine.resolve_target("a")
        payload = engine.to_payload()
        assert payload["open"] == 1
        assert payload["closed"] == 1
        assert payload["rules"][0]["kind"] == "burn_rate"

    def test_incident_carries_provenance(self):
        engine = fresh_engine()
        engine.observe_snapshot(snap(20.0, 20, 20))
        (incident,) = engine.incidents()
        assert incident["runs"] == ["r1"]
        assert incident["evidence"][0]["record"] == "event"
        assert incident["rule"] == "slo"
        assert incident["rule_kind"] == "burn_rate"


class TestEventRouting:
    class _Ledger(FakeLedger):
        def __init__(self, entries):
            super().__init__()
            self._entries = {e["id"]: e for e in entries}

        def get(self, ref):
            if ref not in self._entries:
                raise LookupError(ref)
            return self._entries[ref]

    def test_job_finished_feeds_regression_and_resolves_burn(self):
        from repro.obs.sentinel import RegressionRule

        degraded = entry("sim-0002", DEGRADED)
        ledger = self._Ledger([BASELINE, degraded])
        engine = AlertEngine(
            rules=[
                burn_rule(),
                RegressionRule("regress", baseline="prod", persistence=1),
            ],
            ledger=ledger,
        )
        engine.observe_event(
            {"event": "live.snapshot", "data": snap(20.0, 20, 20)}
        )
        assert engine.open_count == 1
        engine.observe_event(
            {
                "event": "job.finished",
                "data": {"job": "r1", "entry_id": "sim-0002"},
            }
        )
        incidents = engine.incidents()
        burn = next(i for i in incidents if i["rule"] == "slo")
        regress = next(i for i in incidents if i["rule"] == "regress")
        assert burn["status"] == "closed"
        assert burn["close_reason"] == "run_ended"
        assert regress["status"] == "open"
        assert "sim-0002" in regress["runs"]

    def test_each_ledger_entry_is_evaluated_once(self):
        from repro.obs.sentinel import RegressionRule

        rule = RegressionRule("regress", baseline="prod", persistence=99)
        engine = AlertEngine(
            rules=[rule], ledger=self._Ledger([BASELINE])
        )
        candidate = entry("sim-0002", DEGRADED)
        engine.observe_entry(candidate)
        engine.observe_entry(candidate)
        assert rule._streak == 1  # not double-counted

    def test_cancelled_jobs_carry_no_entry(self):
        engine = fresh_engine()
        engine.observe_event(
            {
                "event": "job.finished",
                "data": {"job": "r1", "entry_id": None},
            }
        )  # must not raise; nothing recorded
        assert engine.incidents() == []


class TestAlertLedgerRecording:
    def test_transitions_are_appended_with_envelopes(self, tmp_path):
        alerts = AlertLedger(str(tmp_path / "alerts"))
        engine = fresh_engine(alerts=alerts)
        engine.observe_snapshot(snap(20.0, 20, 20))
        engine.observe_snapshot(snap(140.0, 140, 20))
        records = alerts.records()
        assert [r["action"] for r in records] == ["open", "close"]
        assert [r["seq"] for r in records] == [1, 2]
        assert all("created_utc" in r for r in records)
        # Replaying the log yields the incident's final state.
        (incident,) = alerts.incidents()
        assert incident["status"] == "closed"
        assert alerts.open_incidents() == []
        assert incident == engine.incidents()[0]

    def test_broken_sink_never_breaks_the_engine(self):
        class Exploding:
            def emit(self, record):
                raise RuntimeError("sink down")

        engine = fresh_engine(sinks=[Exploding()])
        engine.observe_snapshot(snap(20.0, 20, 20))
        assert engine.open_count == 1


class TestReplayTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        return synth_campaign_trace(
            runs=2, events_per_run=4000, horizon_s=HORIZON, seed=7
        )

    def replay(self, source):
        engine = AlertEngine(
            rules=[
                BurnRateRule(
                    "slo",
                    slo_s=0.2,
                    objective=0.95,
                    factor=4.0,
                    long_window_s=600.0,
                    short_window_s=120.0,
                    min_count=50,
                )
            ]
        )
        labels = replay_trace(source, engine, snapshot_every=200)
        return labels, engine.incidents()

    def test_seeded_aging_opens_one_incident_per_run(self, trace):
        labels, incidents = self.replay(trace)
        assert labels == [
            "faults/synthetic/SRAA/0",
            "faults/synthetic/SARAA/0",
        ]
        assert [i["id"] for i in incidents] == ["inc-0001", "inc-0002"]
        assert sorted(i["target"] for i in incidents) == sorted(labels)
        for incident in incidents:
            # Opened inside the scripted degraded window (plus the lag
            # of filling the long window), resolved after the clear.
            assert INJECT_TS < incident["opened_ts"] < CLEAR_TS
            assert incident["status"] == "closed"
            assert incident["close_reason"] == "resolved"
            assert CLEAR_TS < incident["closed_ts"] < HORIZON

    def test_replay_is_deterministic(self, trace):
        first = self.replay(trace)
        second = self.replay(trace)
        assert first == second

    def test_healthy_prefix_is_quiet(self, trace):
        healthy = as_query(
            [
                record
                for record in trace.iter_records()
                if record["ts"] < INJECT_TS
            ]
        )
        labels, incidents = self.replay(healthy)
        assert len(labels) == 2
        assert incidents == []  # zero false alarms on healthy traffic

    def test_replay_without_an_slo_raises(self, trace):
        engine = AlertEngine(
            rules=[BurnRateRule("no-slo", slo_s=None)]
        )
        with pytest.raises(ValueError, match="SLO"):
            replay_trace(trace, engine)
