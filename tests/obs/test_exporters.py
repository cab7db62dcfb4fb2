"""JSONL, Chrome trace_event, and Prometheus file outputs."""

import json
import re
import time
from pathlib import Path

import pytest

from repro.obs.exporters import (
    chrome_trace_records,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)
from repro.obs.metrics import MetricsRegistry


RECORDS = [
    {
        "run": 0,
        "tag": ["replication", 0],
        "seed": 7,
        "ts": 0.0,
        "type": "run.meta",
        "source": "session",
        "data": {"completed": 2},
    },
    {
        "run": 0,
        "ts": 10.0,
        "type": "request.complete",
        "source": "system",
        "data": {"index": 0, "response_time": 4.0},
    },
    {
        "run": 0,
        "ts": 12.0,
        "type": "policy.trigger",
        "source": "policy:SRAA",
        "data": {"level": 2, "batch_mean": 21.0, "threshold": 15.0},
    },
]


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert write_jsonl(path, RECORDS) == len(RECORDS)
        assert read_jsonl(path) == RECORDS

    def test_bad_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
            read_jsonl(str(path))

    @pytest.mark.parametrize(
        "line, kind", [("[1,2]", "list"), ("5", "int"), ('"x"', "str")]
    )
    def test_non_object_line_is_rejected(self, tmp_path, line, kind):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\n' + line + "\n")
        with pytest.raises(
            ValueError,
            match=rf"bad\.jsonl:2: expected a JSON object, got {kind}",
        ):
            read_jsonl(str(path))

    def test_non_utf8_byte_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"ok": 1}\n\xff\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            read_jsonl(str(path))

    def test_truncated_gzip_names_the_file(self, tmp_path):
        path = tmp_path / "cut.jsonl.gz"
        write_jsonl(str(path), RECORDS * 50)
        path.write_bytes(path.read_bytes()[:30])
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            read_jsonl(str(path))

    def test_non_gzip_file_names_the_file(self, tmp_path):
        path = tmp_path / "plain.jsonl.gz"
        path.write_text('{"ok": 1}\n')
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            read_jsonl(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert read_jsonl(str(path)) == [{"a": 1}, {"b": 2}]

    def test_gzip_bytes_do_not_depend_on_the_clock(
        self, tmp_path, monkeypatch
    ):
        # gzip stamps the write time into its header unless told not to.
        path = tmp_path / "trace.jsonl.gz"
        written = []
        for now in (1_000_000_000.0, 2_000_000_000.0):
            monkeypatch.setattr(time, "time", lambda: now)
            assert write_jsonl(str(path), RECORDS) == len(RECORDS)
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert read_jsonl(str(path)) == RECORDS

    def test_gzip_bytes_do_not_depend_on_the_file_name(self, tmp_path):
        # gzip stores the file's basename in its header unless told not to.
        written = []
        for name in ("a/x.jsonl.gz", "b/y.jsonl.gz"):
            path = tmp_path / name
            path.parent.mkdir()
            write_jsonl(str(path), RECORDS)
            written.append(path.read_bytes())
        assert written[0] == written[1]


class TestChromeTrace:
    def test_required_keys_on_every_record(self):
        for record in chrome_trace_records(RECORDS):
            for key in ("name", "ph", "ts", "pid", "tid"):
                assert key in record, f"{key} missing from {record}"

    def test_completion_becomes_complete_slice(self):
        slices = [
            r for r in chrome_trace_records(RECORDS) if r["ph"] == "X"
        ]
        (request,) = slices
        # ts is the service-entry instant; the slice spans the response.
        assert request["ts"] == pytest.approx((10.0 - 4.0) * 1e6)
        assert request["dur"] == pytest.approx(4.0 * 1e6)
        assert request["name"] == "request"

    def test_run_meta_becomes_process_name_metadata(self):
        metadata = [
            r for r in chrome_trace_records(RECORDS) if r["ph"] == "M"
        ]
        (record,) = metadata
        assert record["name"] == "process_name"
        assert record["pid"] == 0

    def test_written_file_is_a_json_array(self, tmp_path):
        path = str(tmp_path / "chrome.json")
        count = write_chrome_trace(path, RECORDS)
        with open(path) as handle:
            loaded = json.load(handle)
        assert isinstance(loaded, list)
        assert len(loaded) == count
        for record in loaded:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(record)

    def test_distinct_sources_get_distinct_tids(self):
        records = chrome_trace_records(RECORDS)
        tids = {
            r["tid"] for r in records if r["ph"] != "M"
        }
        assert len(tids) == 2  # system and policy:SRAA


class TestPrometheusFile:
    def test_write(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_completed_total").inc(5)
        path = str(tmp_path / "metrics.prom")
        write_prometheus(path, registry)
        content = Path(path).read_text()
        assert "repro_completed_total 5" in content
        assert content.endswith("\n")
