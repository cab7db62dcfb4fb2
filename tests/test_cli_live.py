"""The live-telemetry CLI surface: --live/--flight/--slo/--profile,
`repro report`, `repro top`, and gzipped-trace round trips."""

import gzip
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.exporters import read_jsonl, write_jsonl


SIMULATE = [
    "simulate",
    "--policy", "sraa",
    "-p", "n=2", "-p", "K=5", "-p", "D=3",
    "--load", "9",
    "--transactions", "2000",
    "--seed", "3",
]

FAULTS_RUN = [
    "faults", "run", "false_aging",
    "--replications", "2",
    "--horizon", "600",
    "--seed", "0",
]


class TestSimulateLive:
    def test_live_summary_printed(self, capsys):
        assert main(SIMULATE + ["--live"]) == 0
        out = capsys.readouterr().out
        assert "live " in out
        assert "live rt sketch" in out
        assert "live rt window" in out

    def test_flight_dumps_written(self, tmp_path, capsys):
        path = str(tmp_path / "flight.jsonl")
        assert main(SIMULATE + ["--flight", path, "--slo", "20"]) == 0
        assert "flight dumps" in capsys.readouterr().out
        records = [
            json.loads(l) for l in Path(path).read_text().splitlines()
        ]
        assert records  # degraded 9-CPU load rejuvenates within 2000 tx
        reasons = {r["reason"] for r in records}
        assert reasons <= {
            "system.rejuvenation", "fault.injected", "slo_breach"
        }
        for record in records:
            assert record["events"]  # every dump carries its ring

    def test_profile_table_printed(self, capsys):
        assert main(SIMULATE + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "subsystem" in out
        assert "workload" in out and "node" in out
        assert "policy.observe" in out

    def test_live_composes_with_full_tracing(self, tmp_path, capsys):
        trace = str(tmp_path / "trace.jsonl")
        assert main(SIMULATE + ["--live", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert "live rt sketch" in out
        types = {r["type"] for r in read_jsonl(trace)}
        assert "request.complete" in types
        assert "policy.trigger" in types


class TestFaultsRunLive:
    def test_campaign_live_and_profile(self, capsys):
        assert main(FAULTS_RUN + ["--live", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "live rt sketch" in out
        assert "subsystem" in out
        assert "injectors" in out  # fault events attributed


class TestReportCommand:
    def test_report_from_campaign_trace(self, tmp_path, capsys):
        """ISSUE acceptance: a self-contained HTML dashboard renders
        from a real fault-campaign trace."""
        trace = str(tmp_path / "campaign.jsonl")
        assert main(FAULTS_RUN + ["--trace", trace]) == 0
        capsys.readouterr()
        assert main(["report", trace]) == 0
        out = capsys.readouterr().out
        html_path = str(tmp_path / "campaign.html")
        assert f"wrote {html_path}" in out
        document = Path(html_path).read_text(encoding="utf-8")
        assert document.startswith("<!DOCTYPE html>")
        assert "http://" not in document and "https://" not in document
        assert "<script" not in document
        assert "fault" in document
        assert "<svg" in document

    def test_report_explicit_out_and_title(self, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        write_jsonl(
            trace,
            [
                {
                    "run": 0, "ts": 0.0, "type": "run.meta",
                    "source": "session", "seed": 1, "tag": ["x"],
                    "data": {"sim_duration_s": 10.0},
                }
            ],
        )
        out_path = str(tmp_path / "dash.html")
        assert main(
            ["report", trace, "-o", out_path, "--title", "my dash"]
        ) == 0
        capsys.readouterr()
        assert "<title>my dash</title>" in Path(out_path).read_text()

    def test_missing_trace_exits(self):
        with pytest.raises(SystemExit):
            main(["report", "/nonexistent/trace.jsonl"])


class TestTopCommand:
    def test_top_runs_a_simulation_with_live_panel(self, capsys):
        # stdout carries the result table; the panel goes to stderr.
        assert main(
            [
                "top",
                "--policy", "sraa",
                "-p", "n=2", "-p", "K=5", "-p", "D=3",
                "--load", "9",
                "--transactions", "500",
                "--seed", "3",
            ]
        ) == 0
        captured = capsys.readouterr()
        assert "repro top" in captured.err
        assert "completed" in captured.err


class TestGzipTraces:
    """Satellite: every trace reader accepts .jsonl.gz transparently."""

    def make_gz(self, tmp_path, source_args):
        plain = str(tmp_path / "trace.jsonl")
        assert main(source_args + ["--trace", plain]) == 0
        gz = str(tmp_path / "trace.jsonl.gz")
        write_jsonl(gz, read_jsonl(plain))
        with gzip.open(gz, "rb") as handle:
            assert handle.read()  # really gzip-compressed
        return plain, gz

    def test_explain_reads_gz(self, tmp_path, capsys):
        _, gz = self.make_gz(tmp_path, SIMULATE)
        capsys.readouterr()
        assert main(["explain", gz]) == 0
        assert "trigger #1" in capsys.readouterr().out

    def test_faults_score_reads_gz(self, tmp_path, capsys):
        plain, gz = self.make_gz(tmp_path, FAULTS_RUN)
        capsys.readouterr()
        assert main(["faults", "score", plain]) == 0
        plain_out = capsys.readouterr().out
        assert main(["faults", "score", gz]) == 0
        gz_out = capsys.readouterr().out
        assert plain_out == gz_out  # identical table from either form

    def test_report_reads_gz(self, tmp_path, capsys):
        _, gz = self.make_gz(tmp_path, SIMULATE)
        capsys.readouterr()
        assert main(["report", gz]) == 0
        out = capsys.readouterr().out
        html_path = str(tmp_path / "trace.html")
        assert f"wrote {html_path}" in out
        assert "<svg" in Path(html_path).read_text(encoding="utf-8")

    def test_write_jsonl_gz_round_trip(self, tmp_path):
        records = [{"ts": float(i), "type": "x"} for i in range(5)]
        path = str(tmp_path / "r.jsonl.gz")
        assert write_jsonl(path, records) == 5
        assert read_jsonl(path) == records
