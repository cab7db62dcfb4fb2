"""Campaign jobs behind POST /api/campaigns: validation, determinism.

The serve path must record into the ledger exactly what the CLI
records for the same campaign: same manifest hash, same outcome
block.  Same seed through the HTTP surface twice -> identical hashes.
"""

import pytest

from repro.faults.campaign import validate_campaign
from repro.serve.jobs import DONE, FAILED, JobManager

#: A campaign small enough for test wall-clocks.
CAMPAIGN = {
    "scenarios": "aging_onset",
    "policies": "SRAA",
    "replications": 1,
    "seed": 3,
    "horizon": 300,
}


class TestValidation:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            validate_campaign({"scenario": "typo"})

    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError, match="no_such_zoo_entry"):
            validate_campaign({"scenarios": "no_such_zoo_entry"})

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            JobManager().submit_campaign({"policies": "NOPOLICY"})

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="replications"):
            validate_campaign({"replications": 0})
        with pytest.raises(ValueError, match="horizon"):
            validate_campaign({"horizon": -1})

    def test_scenarios_all_expands_to_the_zoo(self):
        from repro.faults.zoo import scenario_names

        normalised = validate_campaign({})._asdict()
        assert normalised["scenarios"] == list(scenario_names())
        assert normalised["policies"] == "SRAA,SARAA,CLTA"

    def test_accepts_lists_as_well_as_csv(self):
        normalised = validate_campaign(
            {"scenarios": ["node_crash"], "policies": ["SRAA", "CLTA"]}
        )._asdict()
        assert normalised["scenarios"] == ["node_crash"]
        assert normalised["policies"] == "SRAA,CLTA"

    def test_failed_validation_creates_no_job(self):
        manager = JobManager()
        with pytest.raises(ValueError):
            manager.submit_campaign({"scenarios": "bogus"})
        assert manager.jobs() == []


class TestExecution:
    def test_campaign_records_into_the_ledger(self):
        from repro.obs.ledger import Ledger

        manager = JobManager()
        job = manager.submit_campaign(dict(CAMPAIGN))
        assert job["status"] in ("queued", "running")
        done = manager.wait(job["id"], timeout_s=120.0)
        assert done["status"] == DONE, done["error"]
        entry = Ledger().get(done["entry_id"])
        assert entry["kind"] == "faults"
        assert (
            entry["manifest"]["manifest_hash"] == done["manifest_hash"]
        )
        scores = done["summary"]["scores"]
        assert scores[0]["scenario"] == "aging_onset"
        assert scores[0]["policy"] == "SRAA"
        assert "aging_onset" in done["summary"]["table"]

    def test_same_seed_same_manifest_and_outcomes(self):
        from repro.obs.ledger import Ledger

        manager = JobManager()
        first = manager.wait(
            manager.submit_campaign(dict(CAMPAIGN))["id"],
            timeout_s=120.0,
        )
        second = manager.wait(
            manager.submit_campaign(dict(CAMPAIGN))["id"],
            timeout_s=120.0,
        )
        assert first["status"] == second["status"] == DONE
        assert first["manifest_hash"] == second["manifest_hash"]
        assert first["summary"] == second["summary"]
        ledger = Ledger()
        left = ledger.get(first["entry_id"])
        right = ledger.get(second["entry_id"])
        assert left["outcomes"] == right["outcomes"]

    def test_serve_campaign_matches_cli_campaign_hash(self, capsys):
        """The HTTP path and the CLI path are the same campaign."""
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
        manager = JobManager()
        done = manager.wait(
            manager.submit_campaign(dict(CAMPAIGN))["id"],
            timeout_s=120.0,
        )
        assert done["status"] == DONE, done["error"]
        served_entry = Ledger().get(done["entry_id"])
        assert (
            served_entry["manifest"]["manifest_hash"]
            == cli_entry["manifest"]["manifest_hash"]
        )
        # The serve job rides a live tap, so its outcomes carry an
        # extra "live" block; the scored results must be identical.
        assert (
            served_entry["outcomes"]["scores"]
            == cli_entry["outcomes"]["scores"]
        )

    def test_failure_is_reported_not_raised(self, monkeypatch):
        # The runner thread must catch and report, not kill the server.
        def explode(*args, **kwargs):
            raise RuntimeError("exploded")

        monkeypatch.setattr("repro.faults.campaign.run_request", explode)
        manager = JobManager()
        job = manager.submit_campaign(dict(CAMPAIGN))
        done = manager.wait(job["id"], timeout_s=120.0)
        assert done["status"] == FAILED
        assert done["error"] == "RuntimeError: exploded"
