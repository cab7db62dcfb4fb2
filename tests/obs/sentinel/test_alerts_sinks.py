"""The alert ledger file format and the pluggable sinks."""

import io
import json

import pytest

from repro.obs.sentinel import (
    AlertLedger,
    FileSink,
    StdoutSink,
    WebhookSink,
    sinks_from_specs,
)
from repro.obs.sentinel.sinks import format_transition


def transition(action="open", **incident):
    base = {
        "id": "inc-0001",
        "rule": "slo",
        "target": "r1",
        "status": "open" if action == "open" else "closed",
        "summary": "burn 10.0x/8.0x of budget 0.050",
    }
    base.update(incident)
    return {"action": action, "incident": base}


class TestAlertLedger:
    def test_append_stamps_sequential_envelopes(self, tmp_path):
        ledger = AlertLedger(str(tmp_path / "alerts"))
        first = ledger.append(transition("open"))
        second = ledger.append(transition("close", close_reason="resolved"))
        assert (first["seq"], second["seq"]) == (1, 2)
        assert "created_utc" in first
        lines = ledger.path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["action"] == "open"

    def test_env_var_locates_the_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ALERTS_DIR", str(tmp_path / "via-env"))
        ledger = AlertLedger()
        ledger.append(transition())
        assert (tmp_path / "via-env" / "alerts.jsonl").exists()

    def test_incident_replay_latest_wins(self, tmp_path):
        ledger = AlertLedger(str(tmp_path / "alerts"))
        ledger.append(transition("open"))
        ledger.append(
            transition("open", id="inc-0002", target="r2")
        )
        ledger.append(transition("close", close_reason="resolved"))
        incidents = ledger.incidents()
        assert [i["id"] for i in incidents] == ["inc-0001", "inc-0002"]
        assert incidents[0]["status"] == "closed"
        assert [i["id"] for i in ledger.open_incidents()] == ["inc-0002"]

    def test_empty_ledger_reads_empty(self, tmp_path):
        ledger = AlertLedger(str(tmp_path / "nothing"))
        assert ledger.records() == []
        assert ledger.incidents() == []

    def test_corrupt_line_reported_with_location(self, tmp_path):
        ledger = AlertLedger(str(tmp_path / "alerts"))
        ledger.append(transition("open"))
        with ledger.path.open("a") as handle:
            handle.write("{torn\n")
        with pytest.raises(ValueError, match=r"alerts\.jsonl:2: corrupt"):
            ledger.records()
        with pytest.raises(ValueError, match=r"alerts\.jsonl:2: corrupt"):
            ledger.append(transition("close"))

    def test_seq_follows_appends_from_another_instance(self, tmp_path):
        first = AlertLedger(str(tmp_path / "alerts"))
        second = AlertLedger(str(tmp_path / "alerts"))
        assert first.append(transition("open"))["seq"] == 1
        assert second.append(transition("close"))["seq"] == 2
        assert first.append(transition("open", id="inc-0002"))["seq"] == 3
        assert [r["seq"] for r in second.records()] == [1, 2, 3]


class TestFormatTransition:
    def test_open_line(self):
        line = format_transition(transition("open"))
        assert line.startswith("[open] inc-0001 rule=slo target=r1")
        assert "burn 10.0x" in line

    def test_close_line_carries_the_reason(self):
        line = format_transition(
            transition("close", close_reason="run_ended")
        )
        assert "reason=run_ended" in line


class TestSinks:
    def test_stdout_sink_writes_one_liners(self):
        stream = io.StringIO()
        StdoutSink(stream).emit(transition())
        assert stream.getvalue().startswith("[open] inc-0001")

    def test_file_sink_appends_jsonl(self, tmp_path):
        path = tmp_path / "deep" / "alerts.jsonl"
        sink = FileSink(str(path))
        sink.emit(transition("open"))
        sink.emit(transition("close"))
        records = [
            json.loads(line)
            for line in path.read_text().strip().splitlines()
        ]
        assert [r["action"] for r in records] == ["open", "close"]

    def test_webhook_sink_counts_failures_without_raising(self):
        sink = WebhookSink(
            "http://127.0.0.1:1/unroutable", timeout_s=0.2
        )
        sink.emit(transition())
        assert (sink.sent, sink.errors) == (0, 1)

    def test_specs_build_each_kind(self, tmp_path):
        sinks = sinks_from_specs(
            [
                "stdout",
                f"file:{tmp_path / 'a.jsonl'}",
                "webhook:http://example.invalid/hook",
            ]
        )
        assert [type(s).__name__ for s in sinks] == [
            "StdoutSink",
            "FileSink",
            "WebhookSink",
        ]
        assert sinks_from_specs(None) == []

    @pytest.mark.parametrize(
        "bad", ["file:", "webhook:", "pager", "slack:#chan"]
    )
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            sinks_from_specs([bad])
