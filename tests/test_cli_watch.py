"""``repro watch``: tick mode over recorded inputs, follow mode over SSE.

Tick mode is the cron/CI entry point: burn-rate rules replay a
recorded trace, regression rules walk the run ledger, and the exit
code is 1 exactly when an incident is still open.  The aging trace
here is the same deterministic synthetic campaign the engine tests
pin, so the incident table is bit-for-bit reproducible.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.obs.columnar.io import write_columnar
from repro.obs.columnar.synth import synth_campaign_trace
from repro.obs.exporters import write_jsonl

#: Burn-rule flags matched to the synthetic campaign's SLO and volume.
TICK = [
    "watch", "--tick",
    "--slo", "0.2",
    "--min-count", "50",
    "--snapshot-every", "200",
]


def ledger_entry(entry_id, rts):
    """A run-ledger entry with pinned per-replication response times."""
    n = len(rts)
    return {
        "id": entry_id,
        "kind": "simulate",
        "manifest": {"manifest_hash": "abc123", "kind": "simulate"},
        "outcomes": {
            "per_replication": {
                "avg_response_time": list(rts),
                "loss_fraction": [0.0] * n,
                "rejuvenations": [1.0] * n,
                "gc_count": [0.0] * n,
            }
        },
    }


#: A regression rule against baseline ``prod`` that flags on two runs.
REGRESSION_TICK = [
    "watch", "--tick",
    "--baseline", "prod",
    "--persistence", "2",
]


def regression_ledger(tmp_path, *reruns):
    """A ledger dir: baseline ``prod`` then one entry per rerun."""
    ledger_dir = tmp_path / "ledger"
    ledger_dir.mkdir()
    entries = [ledger_entry("sim-0001", [1.0, 1.1, 0.9, 1.0])] + [
        ledger_entry(f"sim-{index:04d}", rts)
        for index, rts in enumerate(reruns, start=2)
    ]
    with open(ledger_dir / "runs.jsonl", "w", encoding="utf-8") as f:
        for entry in entries:
            f.write(json.dumps(entry) + "\n")
    with open(ledger_dir / "baselines.json", "w", encoding="utf-8") as f:
        json.dump({"prod": {"id": "sim-0001", "manifest_hash": "abc123"}}, f)
    return str(ledger_dir)


@pytest.fixture(scope="class")
def traces(tmp_path_factory):
    """The seeded aging campaign, written in both trace formats."""
    root = tmp_path_factory.mktemp("watch-traces")
    trace = synth_campaign_trace(
        runs=2, events_per_run=4000, horizon_s=3600.0, seed=7
    )
    jsonl = str(root / "aging.jsonl")
    write_jsonl(jsonl, trace.iter_records())
    rcol = str(root / "aging.rcol")
    write_columnar(trace, rcol)
    return jsonl, rcol


class TestWatchTick:
    def test_aging_trace_resolves_and_exits_zero(self, traces, capsys):
        jsonl, _ = traces
        assert main(TICK + ["--trace", jsonl]) == 0
        out = capsys.readouterr().out
        # Both policy runs tripped and recovered inside the trace.
        assert "[close] inc-0001" in out
        assert "[close] inc-0002" in out
        assert "reason=resolved" in out

    def test_json_table_is_identical_across_formats(self, traces, capsys):
        jsonl, rcol = traces
        assert main(TICK + ["--json", "--trace", jsonl]) == 0
        from_jsonl = json.loads(capsys.readouterr().out)
        assert main(TICK + ["--json", "--trace", rcol]) == 0
        from_rcol = json.loads(capsys.readouterr().out)
        assert from_jsonl == from_rcol
        assert from_jsonl["open"] == 0
        incidents = from_jsonl["incidents"]
        assert [i["id"] for i in incidents] == ["inc-0001", "inc-0002"]
        assert {i["target"] for i in incidents} == {
            "faults/synthetic/SRAA/0",
            "faults/synthetic/SARAA/0",
        }
        assert all(i["status"] == "closed" for i in incidents)

    def test_alerts_ledger_and_file_sink_record_transitions(
        self, traces, tmp_path, capsys
    ):
        from repro.obs.sentinel import AlertLedger

        jsonl, _ = traces
        alerts_dir = str(tmp_path / "alerts")
        sink_path = str(tmp_path / "sink.jsonl")
        assert main(
            TICK
            + ["--trace", jsonl, "--alerts", alerts_dir,
               "--sink", f"file:{sink_path}"]
        ) == 0
        capsys.readouterr()
        records = AlertLedger(alerts_dir).records()
        # Runs replay sequentially: each incident opens and resolves
        # before the next run's snapshots begin.
        assert [r["action"] for r in records] == [
            "open", "close", "open", "close",
        ]
        with open(sink_path, encoding="utf-8") as handle:
            sunk = [json.loads(line) for line in handle]
        assert [
            (r["action"], r["incident"]["id"]) for r in sunk
        ] == [
            (r["action"], r["incident"]["id"]) for r in records
        ]

    def test_regression_streak_leaves_an_open_incident(
        self, tmp_path, capsys
    ):
        ledger_dir = regression_ledger(
            tmp_path, [3.0, 3.1, 2.9, 3.05], [3.0, 3.1, 2.9, 3.05]
        )
        assert main(REGRESSION_TICK + ["--ledger", ledger_dir]) == 1
        out = capsys.readouterr().out
        assert "[open] inc-0001" in out
        assert "rule=baseline-regression" in out

    def test_regression_rule_leaves_no_check_state(self, tmp_path):
        # The rule keeps its own streak: watching never advances the
        # one `repro runs check` keeps in the ledger.
        ledger_dir = regression_ledger(
            tmp_path, [3.0, 3.1, 2.9, 3.05], [3.0, 3.1, 2.9, 3.05]
        )
        assert main(REGRESSION_TICK + ["--ledger", ledger_dir]) == 1
        assert not (tmp_path / "ledger" / "check_state.json").exists()

    def test_healthy_reruns_stay_quiet(self, tmp_path, capsys):
        ledger_dir = regression_ledger(
            tmp_path, [1.02, 0.95, 1.05, 0.99], [0.98, 1.04, 1.0, 1.01]
        )
        assert main(REGRESSION_TICK + ["--ledger", ledger_dir]) == 0
        assert "no incidents" in capsys.readouterr().out

    def test_no_rules_is_an_error(self):
        with pytest.raises(SystemExit, match="needs rules"):
            main(["watch", "--tick"])

    def test_missing_trace_is_an_error(self):
        with pytest.raises(SystemExit, match="no such trace"):
            main([
                "watch", "--tick", "--slo", "0.2",
                "--trace", "/nonexistent/trace.rcol",
            ])

    def test_bad_sink_spec_is_an_error(self, traces):
        jsonl, _ = traces
        with pytest.raises(SystemExit):
            main(TICK + ["--trace", jsonl, "--sink", "carrier-pigeon"])


class TestWatchFollow:
    def test_follow_prints_a_live_alert(self, capsys):
        # A watched server; snapshots that trip the burn math are
        # published after the follower attaches, and the resulting
        # alert rides the SSE stream into the follower's stdout.
        from repro.serve import ReproServer

        rules = {
            "burn_rate": [
                {
                    "name": "slo",
                    "slo_s": 0.2,
                    "objective": 0.9,
                    "factor": 2.0,
                    "long_window_s": 100.0,
                    "short_window_s": 20.0,
                    "min_count": 10,
                }
            ]
        }
        server = ReproServer(port=0, rules=rules).start()
        try:
            def trip():
                threading.Event().wait(0.3)
                for ts, completed, bad in [
                    (10.0, 10, 0), (20.0, 20, 20),
                ]:
                    server.broker.publish(
                        "live.snapshot",
                        {
                            "ts": ts,
                            "completed": completed,
                            "slo_bad": bad,
                            "slo_s": 0.2,
                            "run": "job-0001",
                        },
                    )

            thread = threading.Thread(target=trip, daemon=True)
            thread.start()
            assert main([
                "watch", "--follow",
                "--url", server.url,
                "--max-events", "1",
                "--timeout", "30",
            ]) == 0
            thread.join()
        finally:
            server.close()
        out = capsys.readouterr().out
        assert "[open] inc-0001" in out
        assert "rule=slo" in out

    def test_follow_alerts_backs_off_exponentially(self, capsys):
        from repro.obs.sentinel.watch import follow_alerts

        delays = []
        printed = follow_alerts(
            "http://127.0.0.1:1",  # nothing listens here
            sleep=delays.append,
            max_retries=4,
        )
        assert printed == 0
        assert delays == [0.5, 1.0, 2.0, 4.0]
        out = capsys.readouterr().out
        assert "connection lost; retry 1 in 0.5s" in out
        assert "retry 4 in 4.0s" in out

    def test_follow_alerts_backoff_is_capped(self):
        from repro.obs.sentinel.watch import (
            BACKOFF_MAX_S,
            follow_alerts,
        )
        import io

        delays = []
        follow_alerts(
            "http://127.0.0.1:1",
            sleep=delays.append,
            max_retries=10,
            stream=io.StringIO(),
        )
        assert max(delays) == BACKOFF_MAX_S
        assert delays[-3:] == [BACKOFF_MAX_S] * 3


class TestTopFollowBackoff:
    def test_follow_snapshots_backs_off_and_recovers(self, tmp_path):
        import io

        from repro.obs.live.top import follow_snapshots

        path = tmp_path / "snapshot.json"
        delays = []

        def sleep(delay):
            delays.append(delay)
            if len(delays) == 3:
                # Source comes back: the next fetch succeeds and the
                # backoff resets to the base interval.
                path.write_text(json.dumps({"ts": 1.0}))

        painted = follow_snapshots(
            str(path),
            interval_s=1.0,
            frames=5,
            stream=io.StringIO(),
            sleep=sleep,
        )
        assert painted == 5
        assert delays == [1.0, 2.0, 4.0, 1.0]
