"""``GET /api/runs/<ref>/trace/summary`` against a live server.

A traced run leaves its trace path in the ledger entry's artifacts
block; the endpoint loads the trace (either format), summarises event
counts and latency quantiles, and paginates the per-run rows with the
same offset/limit convention as ``/api/runs``.
"""

import os

import pytest

from repro.cli import main

CAMPAIGN = [
    "faults", "run", "aging_onset",
    "--policies", "SRAA",
    "--replications", "2",
    "--seed", "5",
    "--backend", "serial",
    "--trace-level", "all",
]


def seed_traced_run(tmp_path, name="trace.rcol"):
    path = str(tmp_path / name)
    assert main(CAMPAIGN + ["--trace", path]) == 0
    return path


class TestTraceSummary:
    def test_summary_payload(self, served, tmp_path):
        trace = seed_traced_run(tmp_path)
        status, payload = served.get("/api/runs/latest/trace/summary")
        assert status == 200
        assert payload["trace"] == os.path.abspath(trace)
        assert payload["format"] == "columnar"
        assert payload["records"] > 0
        counts = payload["events_by_kind"]
        assert counts["run.meta"] == 2
        assert counts["request.complete"] > 0
        assert payload["total"] == 2
        assert payload["count"] == len(payload["runs"]) == 2
        for row, run_id in zip(payload["runs"], (0, 1)):
            assert row["run"] == run_id
            assert row["tag"][0] == "faults"
            assert row["records"] > 0
            assert row["completions"] > 0

    def test_quantiles_are_ordered(self, served, tmp_path):
        seed_traced_run(tmp_path)
        _status, payload = served.get("/api/runs/latest/trace/summary")
        quantiles = payload["latency_quantiles"]
        assert set(quantiles) == {"p50", "p90", "p95", "p99"}
        assert (
            quantiles["p50"]
            <= quantiles["p90"]
            <= quantiles["p95"]
            <= quantiles["p99"]
        )

    def test_pagination_tiles_consistently(self, served, tmp_path):
        seed_traced_run(tmp_path)
        _status, full = served.get("/api/runs/latest/trace/summary")
        _status, first = served.get(
            "/api/runs/latest/trace/summary?limit=1"
        )
        _status, second = served.get(
            "/api/runs/latest/trace/summary?offset=1&limit=1"
        )
        assert first["total"] == second["total"] == full["total"] == 2
        assert first["count"] == second["count"] == 1
        assert first["runs"] + second["runs"] == full["runs"]
        # Aggregates describe the whole trace, not the page.
        assert first["records"] == full["records"]
        assert first["events_by_kind"] == full["events_by_kind"]
        assert first["latency_quantiles"] == full["latency_quantiles"]

    def test_jsonl_trace_served_identically(self, served, tmp_path):
        seed_traced_run(tmp_path, name="a.rcol")
        _status, columnar = served.get("/api/runs/latest/trace/summary")
        seed_traced_run(tmp_path, name="b.jsonl")
        _status, jsonl = served.get("/api/runs/latest/trace/summary")
        assert jsonl["format"] == "jsonl"
        # Identical modulo the fields naming the artifact itself.
        for payload in (columnar, jsonl):
            payload.pop("trace")
            payload.pop("format")
            payload.pop("id")
        assert columnar == jsonl

    def test_untraced_run_is_404(self, served):
        assert main(["simulate", "--transactions", "200", "--seed", "7"]) == 0
        status, payload = served.get("/api/runs/latest/trace/summary")
        assert status == 404
        assert "no trace artifact" in payload["error"]
        assert "--trace" in payload["error"]

    def test_deleted_artifact_is_404(self, served, tmp_path):
        trace = seed_traced_run(tmp_path)
        os.remove(trace)
        status, payload = served.get("/api/runs/latest/trace/summary")
        assert status == 404
        assert "missing on disk" in payload["error"]

    def test_unknown_ref_is_404(self, served, tmp_path):
        seed_traced_run(tmp_path)
        status, payload = served.get(
            "/api/runs/zzz-no-such/trace/summary"
        )
        assert status == 404
        assert "error" in payload
