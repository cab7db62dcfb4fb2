"""The `repro runs` subcommands and ledger recording end to end.

These tests exercise the same path a user does: `simulate` records an
entry, `runs baseline` pins it, `runs check` compares a candidate
against the pin, and an injected regression walks the 0 -> 1 -> 2 exit
codes (ok -> exceeded -> flagged).
"""

import json
import os

import pytest

from repro.cli import main

SIMULATE = [
    "simulate",
    "--policy", "sraa",
    "-p", "n=2", "-p", "K=5", "-p", "D=3",
    "--load", "9",
    "--transactions", "800",
    "--replications", "2",
    "--seed", "7",
]


def simulate(extra=(), capsys=None):
    assert main(SIMULATE + list(extra)) == 0
    if capsys is not None:
        return capsys.readouterr().out
    return None


class TestRecording:
    def test_simulate_records_entry(self, capsys):
        out = simulate(capsys=capsys)
        assert "ledger            : recorded sim-0001-" in out
        assert main(["runs", "list"]) == 0
        assert "sim-0001-" in capsys.readouterr().out

    def test_no_ledger_flag_records_nothing(self, capsys):
        simulate(["--no-ledger"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "show", "latest"])
        assert "empty" in str(excinfo.value)

    def test_entries_deterministic_across_reruns(self, capsys):
        simulate()
        simulate()
        capsys.readouterr()
        assert main(["runs", "show", "sim-0001", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["runs", "show", "sim-0002", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert (
            first["manifest"]["manifest_hash"]
            == second["manifest"]["manifest_hash"]
        )
        assert first["outcomes"] == second["outcomes"]


class TestShowAndDiff:
    def test_show_formats_provenance(self, capsys):
        simulate()
        capsys.readouterr()
        assert main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "manifest hash" in out
        assert "seed protocol" in out

    def test_diff_identical_exits_zero(self, capsys):
        simulate()
        simulate()
        capsys.readouterr()
        assert main(["runs", "diff", "sim-0001", "sim-0002"]) == 0

    def test_diff_different_specs_exits_one(self, capsys):
        simulate()
        simulate(["--load", "11"])
        capsys.readouterr()
        assert main(["runs", "diff", "sim-0001", "sim-0002"]) == 1
        assert "rate" in capsys.readouterr().out


class TestCheck:
    def test_check_against_pinned_baseline_ok(self, capsys):
        simulate()
        assert main(["runs", "baseline", "sim-0001"]) == 0
        simulate()
        capsys.readouterr()
        assert main(["runs", "check"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out

    def test_regression_walks_exit_codes(self, capsys):
        simulate()
        assert main(["runs", "baseline", "sim-0001"]) == 0
        simulate(["--load", "13"])
        capsys.readouterr()
        assert main(["runs", "check"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out
        assert "EXCEEDED" in out
        # Second consecutive exceedance trips the persistence filter.
        assert main(["runs", "check"]) == 2
        assert "FLAGGED" in capsys.readouterr().out

    def test_warn_only_masks_exit_code(self, capsys):
        simulate()
        assert main(["runs", "baseline", "sim-0001"]) == 0
        simulate(["--load", "13"])
        capsys.readouterr()
        assert main(["runs", "check", "--warn-only"]) == 0
        assert "EXCEEDED" in capsys.readouterr().out

    def test_check_against_entry_file(self, tmp_path, capsys):
        simulate()
        capsys.readouterr()
        assert main(["runs", "show", "latest", "--json"]) == 0
        entry = capsys.readouterr().out
        path = tmp_path / "baseline.json"
        path.write_text(entry)
        assert main(["runs", "check", "--against", str(path)]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_check_json_output(self, capsys):
        simulate()
        assert main(["runs", "baseline", "sim-0001"]) == 0
        capsys.readouterr()
        assert main(["runs", "check", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exceeded"] is False
        assert report["checks"]

    def test_missing_baseline_explains(self, capsys):
        simulate()
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "check"])
        assert "baseline" in str(excinfo.value)


class TestListWindow:
    @pytest.mark.parametrize("last", [0, 1])
    def test_text_rows_match_json_ids(self, last, capsys):
        simulate()
        simulate(["--seed", "8"])
        capsys.readouterr()
        assert main(["runs", "list", "--last", str(last)]) == 0
        text = capsys.readouterr().out
        rows = [
            line.split()[0]
            for line in text.splitlines()
            if not line.startswith("no recorded runs")
        ]
        assert main(["runs", "list", "--last", str(last), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert rows == [run["id"] for run in payload["runs"]]
        assert len(rows) == payload["count"] == last
        assert payload["total"] == 2

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_negative_last_is_a_usage_error(self, extra, capsys):
        simulate()
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "list", "--last", "-1"] + extra)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument -n/--last: must be an integer >= 0" in captured.err


class TestBaselinePins:
    def test_listing_pins(self, capsys):
        simulate()
        assert main(["runs", "baseline", "latest", "--label", "smoke"]) == 0
        capsys.readouterr()
        assert main(["runs", "baseline"]) == 0
        assert "smoke" in capsys.readouterr().out

    def test_list_marks_baseline(self, capsys):
        simulate()
        assert main(["runs", "baseline", "latest"]) == 0
        capsys.readouterr()
        assert main(["runs", "list"]) == 0
        assert "[baseline:default]" in capsys.readouterr().out


class TestBench:
    def test_empty_bench_dir(self, capsys):
        assert main(["runs", "bench"]) == 0
        assert "no benchmark trajectories" in capsys.readouterr().out

    def test_lists_and_validates_trajectories(self, capsys):
        from repro.obs.ledger.bench import record_bench_point

        record_bench_point("mmc_baseline_smoke", 0.5, seed=1)
        assert main(["runs", "bench"]) == 0
        out = capsys.readouterr().out
        assert "mmc_baseline_smoke" in out
        assert "INVALID" not in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_package_dunder_version(self):
        import repro

        assert repro.__version__
        assert repro.__version__[0].isdigit()


class TestLedgerDirOption:
    def test_explicit_ledger_dir(self, tmp_path, capsys):
        simulate()
        capsys.readouterr()
        other = str(tmp_path / "elsewhere")
        assert main(["runs", "list", "--ledger", other]) == 0
        # Entries recorded by simulate went to the env-pointed ledger,
        # not to the explicit one.
        assert "no recorded runs" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(other, "runs.jsonl"))
