"""The `repro faults` CLI: list, run (trace/CSV), score round trip."""

import csv

import pytest

from repro.cli import main
from repro.faults.score import SCORE_COLUMNS
from repro.faults.zoo import scenario_names
from repro.obs.exporters import read_jsonl


RUN = [
    "faults", "run", "false_aging",
    "--replications", "2",
    "--horizon", "600",
    "--seed", "0",
]


class TestFaultsList:
    def test_lists_every_builtin_scenario(self, capsys):
        assert main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-5", "100"])
    def test_bad_horizon_is_a_usage_error(self, horizon, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "list", "--horizon", horizon])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "argument --horizon: horizon must be a finite number" in err


class TestFaultsRun:
    def test_prints_score_table_and_writes_csv(self, tmp_path, capsys):
        path = str(tmp_path / "scores.csv")
        assert main(RUN + ["--csv", path]) == 0
        out = capsys.readouterr().out
        assert "false_aging" in out
        assert "SRAA" in out and "SARAA" in out and "CLTA" in out
        assert "FA/hh" in out
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(SCORE_COLUMNS)
        assert len(rows) == 1 + 3  # header + one row per policy

    def test_unknown_scenario_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "run", "nonesuch"])

    @pytest.mark.parametrize("replications", ["0", "-2"])
    def test_bad_replications_is_one_line(self, replications, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(RUN[:3] + ["--replications", replications])
        message = str(excinfo.value.code)
        assert excinfo.value.code != 0
        assert message.startswith("replications must be")
        assert "\n" not in message
        assert capsys.readouterr().out == ""

    def test_unknown_policy_exits(self):
        with pytest.raises(SystemExit):
            main(RUN[:3] + ["--policies", "nonesuch"])

    def test_scenario_file_joins_the_campaign(self, tmp_path, capsys):
        from repro.faults.scenario import save_scenario
        from repro.faults.zoo import get_scenario

        import dataclasses

        custom = dataclasses.replace(
            get_scenario("aging_onset", 600.0), name="my_custom"
        )
        path = str(tmp_path / "custom.json")
        save_scenario(custom, path)
        assert (
            main(
                RUN
                + ["--scenario-file", path, "--policies", "SRAA"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "my_custom" in out


class TestFaultsRunSystems:
    def test_cluster_substrate(self, capsys):
        assert (
            main(
                RUN
                + ["--policies", "SRAA", "--system", "cluster",
                   "--nodes", "2"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "false_aging" in out and "SRAA" in out

    def test_fleet_substrate_with_scheduler(self, capsys):
        assert (
            main(
                RUN
                + ["--policies", "SRAA", "--system", "fleet",
                   "--nodes", "8", "--shards", "2",
                   "--scheduler", "rolling", "--capacity-floor", "0.75"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "false_aging" in out

    def test_invalid_fleet_layout_exits(self):
        # Pods of 4 straddle the 10-node / 2-shard boundary at node 5.
        with pytest.raises(SystemExit, match="--system"):
            main(
                RUN
                + ["--policies", "SRAA", "--system", "fleet",
                   "--nodes", "10", "--shards", "2",
                   "--scheduler", "rolling", "--pod-size", "4"]
            )


    @pytest.mark.parametrize(
        "extra, flag",
        [
            (["--system", "cluster", "--capacity-floor", "0.8",
              "--max-nodes-down", "1", "--min-gap", "50"],
             "--capacity-floor"),
            (["--system", "ecommerce", "--scheduler", "canary",
              "--nodes", "7"], "--nodes"),
            (["--nodes", "4"], "--nodes"),
            (["--balancer", "jsq"], "--balancer"),
            (["--scheduler", "rolling"], "--scheduler"),
            (["--system", "cluster", "--shards", "2"], "--shards"),
            (["--system", "cluster", "--min-gap", "30"], "--min-gap"),
            (["--system", "fleet", "--max-nodes-down", "1"],
             "--max-nodes-down"),
            (["--system", "fleet", "--scheduler", "unrestricted",
              "--pod-size", "2"], "--pod-size"),
            (["--system", "cluster", "--scheduler", "rolling",
              "--canary-soak", "5"], "--canary-soak"),
            (["--system", "cluster", "--scheduler", "rolling",
              "--max-down-per-pod", "2"], "--max-down-per-pod"),
        ],
    )
    def test_unread_flag_is_one_line(self, extra, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(RUN + ["--policies", "SRAA"] + extra)
        message = str(excinfo.value.code)
        assert message.startswith(f"{flag}: only read with ")
        assert "\n" not in message
        assert capsys.readouterr().out == ""


class TestFaultsScoreRoundTrip:
    def test_score_reprints_the_run_table(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        assert main(RUN + ["--trace", trace]) == 0
        run_out = capsys.readouterr().out
        records = read_jsonl(trace)
        types = {r["type"] for r in records}
        assert "fault.injected" in types
        assert "run.meta" in types

        assert main(
            ["faults", "score", trace, "--horizon", "600"]
        ) == 0
        score_out = capsys.readouterr().out
        # The re-scored table matches the live table line for line.
        run_table = [
            line
            for line in run_out.splitlines()
            if line.startswith("false_aging")
        ]
        score_table = [
            line
            for line in score_out.splitlines()
            if line.startswith("false_aging")
        ]
        assert run_table == score_table
        assert len(run_table) == 3

    def test_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "score", "/nonexistent/trace.jsonl"])

    def test_explain_narrates_injections(self, tmp_path, capsys):
        trace = str(tmp_path / "campaign.jsonl")
        assert main(RUN + ["--trace", trace]) == 0
        capsys.readouterr()
        assert main(["explain", trace]) == 0
        out = capsys.readouterr().out
        assert "fault injected" in out
        assert "hang" in out
        assert "slowdown" in out
