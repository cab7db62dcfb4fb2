"""The assurance plane over real sockets: schedules, alerts, SSE.

The tentpole acceptance pin lives here: a campaign launched by the
scheduler through ``POST /api/schedules/tick`` records a ledger entry
whose manifest hash is byte-identical to the same campaign run via the
CLI.  Alert evaluation rides the same server: snapshots published
through the broker open incidents that surface on ``GET /api/alerts``,
the SSE ``alert`` event, and the alert ledger file.
"""

import threading

import pytest

from repro.serve import ReproServer

from .conftest import ServerClient

#: Same campaign shape as tests/serve/test_serve_jobs.py.
CAMPAIGN = {
    "scenarios": "aging_onset",
    "policies": "SRAA",
    "replications": 1,
    "seed": 3,
    "horizon": 300,
}

#: A burn rule that handcrafted snapshots can trip quickly.
RULES = {
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


@pytest.fixture
def watched(tmp_path):
    """A server with alert rules and a persisted alert ledger."""
    server = ReproServer(
        port=0, rules=RULES, alerts_dir=str(tmp_path / "alerts")
    ).start()
    client = ServerClient(server)
    yield client
    server.close()


def snapshot(ts, completed, bad):
    return {
        "ts": ts,
        "completed": completed,
        "slo_bad": bad,
        "slo_s": 0.2,
        "run": "job-0001",
    }


class TestSchedulesApi:
    def test_add_tick_launch_roundtrip(self, watched):
        status, body = watched.post(
            "/api/schedules",
            {
                "name": "nightly",
                "campaign": dict(CAMPAIGN),
                "every_s": 60.0,
                "now": 0.0,
            },
        )
        assert status == 201
        assert body["schedule"]["next_due"] == 60.0
        status, listing = watched.get("/api/schedules")
        assert status == 200
        assert [s["name"] for s in listing["schedules"]] == ["nightly"]
        status, single = watched.get("/api/schedules/nightly")
        assert status == 200
        assert single["schedule"]["every_s"] == 60.0

        status, early = watched.post("/api/schedules/tick", {"now": 30.0})
        assert status == 200
        assert early["launched"] == []
        status, fired = watched.post("/api/schedules/tick", {"now": 60.0})
        assert status == 200
        (job,) = fired["launched"]
        assert job["source"] == "schedule:nightly"
        assert job["scheduled_for"] == 60.0
        final = watched.server.jobs.wait(job["id"], timeout_s=180.0)
        assert final["status"] == "done", final["error"]

        status, health = watched.get("/api/health")
        assert health["schedules"] == 1

    def test_scheduled_run_matches_cli_manifest_hash(self, watched):
        """Scheduler-launched campaigns are the CLI campaign, bit for bit."""
        from repro.cli import main
        from repro.obs.ledger import Ledger

        assert main([
            "faults", "run", "aging_onset",
            "--policies", "SRAA",
            "--replications", "1",
            "--seed", "3",
            "--horizon", "300",
            "--backend", "serial",
        ]) == 0
        cli_entry = Ledger().get("latest")

        watched.post(
            "/api/schedules",
            {
                "name": "nightly",
                "campaign": dict(CAMPAIGN),
                "every_s": 60.0,
                "now": 0.0,
            },
        )
        _, fired = watched.post("/api/schedules/tick", {"now": 60.0})
        (job,) = fired["launched"]
        final = watched.server.jobs.wait(job["id"], timeout_s=180.0)
        assert final["status"] == "done", final["error"]
        scheduled_entry = Ledger().get(final["entry_id"])
        assert (
            scheduled_entry["manifest"]["manifest_hash"]
            == cli_entry["manifest"]["manifest_hash"]
        )

    def test_bad_schedules_are_400s(self, watched):
        cases = [
            {"name": "x", "campaign": {"scenarios": "bogus"},
             "every_s": 60.0},
            {"name": "x", "campaign": dict(CAMPAIGN)},  # no trigger
            {"name": "x", "campaign": dict(CAMPAIGN), "every_s": 60.0,
             "typo": 1},
        ]
        for body in cases:
            status, payload = watched.post("/api/schedules", body)
            assert status == 400, body
            assert "error" in payload
        watched.post(
            "/api/schedules",
            {"name": "dup", "campaign": dict(CAMPAIGN), "every_s": 60.0,
             "now": 0.0},
        )
        status, payload = watched.post(
            "/api/schedules",
            {"name": "dup", "campaign": dict(CAMPAIGN), "every_s": 60.0,
             "now": 0.0},
        )
        assert status == 400
        assert "already exists" in payload["error"]

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"now": None}, "now"),
            ({"every_s": [60]}, "every_s"),
            ({"every_s": "60"}, "every_s"),
            ({"anchor_s": []}, "anchor_s"),
            ({"max_runs": 1.5}, "max_runs"),
            ({"cron": 5}, "cron"),
            ({"campaign": {"seed": None}}, "seed"),
        ],
    )
    def test_wrong_typed_field_is_400_naming_it(self, watched, patch, field):
        body = {"name": "x", "campaign": dict(CAMPAIGN), "every_s": 60.0}
        status, payload = watched.post("/api/schedules", {**body, **patch})
        assert status == 400
        assert payload["error"].startswith(f"{field} must be")
        assert watched.get("/api/schedules") == (200, {"schedules": []})

    def test_tick_now_must_be_numeric(self, watched):
        status, payload = watched.post(
            "/api/schedules/tick", {"now": "noon"}
        )
        assert status == 400
        status, missing = watched.get("/api/schedules/never-added")
        assert status == 404


class TestAlertsApi:
    def test_incident_lifecycle_surfaces_everywhere(self, watched, tmp_path):
        broker = watched.server.broker
        broker.publish("live.snapshot", snapshot(10.0, 10, 0))
        _, quiet = watched.get("/api/alerts")
        assert quiet == {
            "open": 0,
            "closed": 0,
            "incidents": [],
            "rules": quiet["rules"],
        }
        assert quiet["rules"][0]["name"] == "slo"

        broker.publish("live.snapshot", snapshot(20.0, 20, 20))
        _, firing = watched.get("/api/alerts")
        assert firing["open"] == 1
        (incident,) = firing["incidents"]
        assert incident["id"] == "inc-0001"
        assert incident["target"] == "job-0001"

        _, health = watched.get("/api/health")
        assert health["alerts_open"] == 1

        broker.publish("live.snapshot", snapshot(140.0, 140, 20))
        _, resolved = watched.get("/api/alerts")
        assert resolved["open"] == 0
        assert resolved["closed"] == 1
        assert resolved["incidents"][0]["close_reason"] == "resolved"

        # The transitions were persisted to the alert ledger file.
        from repro.obs.sentinel import AlertLedger

        records = AlertLedger(str(tmp_path / "alerts")).records()
        assert [r["action"] for r in records] == ["open", "close"]

    def test_alert_event_rides_the_sse_stream(self, watched):
        collected = []
        done = threading.Event()

        def subscriber():
            collected.extend(
                watched.sse_events(max_events=4, timeout_s=30.0)
            )
            done.set()

        thread = threading.Thread(target=subscriber, daemon=True)
        thread.start()
        threading.Event().wait(0.3)  # let the stream attach
        broker = watched.server.broker
        broker.publish("live.snapshot", snapshot(10.0, 10, 0))
        broker.publish("live.snapshot", snapshot(20.0, 20, 0))
        broker.publish("live.snapshot", snapshot(30.0, 30, 25))
        assert done.wait(30.0)
        kinds = [e["event"] for e in collected]
        assert kinds[0] == "sse.hello"
        assert kinds[1:] == [
            "live.snapshot",
            "live.snapshot",
            "live.snapshot",
            "alert",
        ]
        alert = collected[-1]["data"]
        assert alert["action"] == "open"
        assert alert["incident"]["id"] == "inc-0001"
        # The alert is a broker event like any other: ordered after the
        # snapshot that tripped it.
        seqs = [e["seq"] for e in collected[1:]]
        assert seqs == sorted(seqs)

    def test_unwatched_server_reports_no_rules(self, served):
        _, payload = served.get("/api/alerts")
        assert payload == {
            "open": 0, "closed": 0, "incidents": [], "rules": [],
        }
        _, health = served.get("/api/health")
        assert health["alerts_open"] == 0
