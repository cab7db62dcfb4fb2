"""The CLI tracing surface: --trace/--trace-level/--trace-chrome/
--metrics, --telemetry-csv, and the `repro explain` subcommand."""

import csv
import json
import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.obs.exporters import read_jsonl


SIMULATE = [
    "simulate",
    "--policy", "sraa",
    "-p", "n=2", "-p", "K=5", "-p", "D=3",
    "--load", "9",
    "--transactions", "2000",
    "--seed", "3",
]


class TestSimulateTrace:
    def test_jsonl_trace_written_and_explainable(self, tmp_path, capsys):
        trace = str(tmp_path / "out.jsonl")
        assert main(SIMULATE + ["--trace", trace]) == 0
        assert f"wrote {trace}" in capsys.readouterr().out

        records = read_jsonl(trace)
        types = {r["type"] for r in records}
        assert "run.meta" in types
        assert "request.complete" in types
        assert "policy.trigger" in types

        assert main(["explain", trace]) == 0
        out = capsys.readouterr().out
        assert "trigger #1" in out
        assert "bucket" in out and "threshold" in out

    def test_trace_level_spans_omits_decisions(self, tmp_path):
        trace = str(tmp_path / "spans.jsonl")
        assert (
            main(SIMULATE + ["--trace", trace, "--trace-level", "spans"])
            == 0
        )
        types = {r["type"] for r in read_jsonl(trace)}
        assert "request.complete" in types
        assert "policy.trigger" not in types
        assert "des.event" not in types

    def test_chrome_trace_is_valid_event_array(self, tmp_path):
        chrome = str(tmp_path / "chrome.json")
        assert main(SIMULATE + ["--trace-chrome", chrome]) == 0
        with open(chrome) as handle:
            events = json.load(handle)
        assert isinstance(events, list) and events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        assert any(e["ph"] == "X" for e in events)

    def test_metrics_snapshot(self, tmp_path):
        metrics = str(tmp_path / "metrics.prom")
        assert main(SIMULATE + ["--metrics", metrics]) == 0
        content = open(metrics).read()
        assert "# TYPE repro_completed_total counter" in content
        assert "repro_response_time_seconds_bucket" in content

    @pytest.mark.parametrize(
        "name, fmt",
        [
            ("out.rcol", "columnar"),
            ("out.rcol.gz", "columnar"),
            ("out.columnar", "columnar"),
            ("out.columnar.gz", "columnar"),
            ("out.jsonl", "jsonl"),
            ("out.jsonl.gz", "jsonl"),
            ("out.json", "jsonl"),
            ("out.trace", "jsonl"),
        ],
    )
    def test_trace_file_format_follows_the_suffix(self, tmp_path, name, fmt):
        from repro.obs.columnar.io import sniff_format

        trace = str(tmp_path / name)
        assert main(SIMULATE + ["--trace", trace]) == 0
        assert sniff_format(trace) == fmt

    def test_telemetry_csv_schema(self, tmp_path):
        from repro.ecommerce.telemetry import TELEMETRY_COLUMNS

        path = str(tmp_path / "telemetry.csv")
        assert (
            main(
                SIMULATE
                + ["--replications", "2", "--telemetry-csv", path]
            )
            == 0
        )
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["replication"] + list(TELEMETRY_COLUMNS)
        replications = {row[0] for row in rows[1:]}
        assert replications == {"0", "1"}


class TestRunTrace:
    def test_run_comparison_quick_traces(self, tmp_path, capsys):
        """The ISSUE acceptance command, at smoke scale for test speed."""
        trace = str(tmp_path / "out.jsonl")
        code = main(
            [
                "run", "comparison",
                "--scale", "smoke",
                "--trace", trace,
            ]
        )
        assert code == 0
        records = read_jsonl(trace)
        types = {r["type"] for r in records}
        assert "request.complete" in types  # request spans
        assert "policy.batch" in types  # policy decisions
        assert main(["explain", trace]) == 0
        capsys.readouterr()

    def test_alias_resolves(self):
        from repro.experiments.registry import resolve_experiment_id

        assert resolve_experiment_id("comparison") == "fig16"
        assert resolve_experiment_id("fig16") == "fig16"
        with pytest.raises(ValueError, match="aliases"):
            resolve_experiment_id("nope")


class TestExplainCommand:
    def test_missing_file_exits(self):
        with pytest.raises(SystemExit):
            main(["explain", "/nonexistent/trace.jsonl"])


class TestMalformedTraces:
    """A bad trace ends every trace-reading command with one line."""

    RECORD = {
        "ts": 1.0,
        "type": "request.complete",
        "source": "system",
        "data": {"response_time": 0.5},
        "run": 0,
    }

    def make(self, tmp_path, kind):
        from repro.obs.columnar.io import write_columnar
        from repro.obs.columnar.store import ColumnarTrace

        if kind == "truncated_rcol":
            path = tmp_path / "trace.rcol"
            write_columnar(ColumnarTrace.from_records([self.RECORD]), str(path))
            path.write_bytes(path.read_bytes()[:-4])
            return str(path), "bad trailer"
        path = tmp_path / "trace.jsonl"
        line = "not json" if kind == "bad_line" else "[1,2]"
        path.write_text(json.dumps(self.RECORD) + "\n" + line + "\n")
        expected = "not valid JSONL" if kind == "bad_line" else "JSON object"
        return str(path), expected

    @staticmethod
    def argv(command, path, tmp_path):
        return {
            "report": ["report", path, "-o", str(tmp_path / "r.html")],
            "explain": ["explain", path],
            "faults score": ["faults", "score", path],
            "trace convert": [
                "trace", "convert", path, str(tmp_path / "out.jsonl"),
            ],
            "watch --tick": ["watch", "--tick", "--slo", "0.2",
                             "--trace", path],
        }[command]

    @pytest.mark.parametrize(
        "command",
        ["report", "explain", "faults score", "trace convert",
         "watch --tick"],
    )
    @pytest.mark.parametrize(
        "kind", ["bad_line", "non_object_line", "truncated_rcol"]
    )
    def test_one_line_message(self, tmp_path, capsys, command, kind):
        path, expected = self.make(tmp_path, kind)
        with pytest.raises(SystemExit) as exit_info:
            main(self.argv(command, path, tmp_path))
        message = exit_info.value.code
        # A string code exits with status 1 and prints just the message.
        assert isinstance(message, str)
        assert "\n" not in message
        assert message.startswith(path) and expected in message
        assert "Traceback" not in capsys.readouterr().err

    def test_process_exits_one_without_traceback(self, tmp_path):
        import repro

        path, _ = self.make(tmp_path, "non_object_line")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             *self.argv("report", path, tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert f"{path}:2: expected a JSON object" in result.stderr
