"""The JSON API over the run ledger, against a live server.

The ledger endpoints must agree byte-for-byte with the CLI's JSON
output (they share one serializer) and read the same append-only files
the CLI writes -- entries recorded after the server started appear
without a restart.
"""

import http.client
import json
import socket

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger
from tests.serve.conftest import SIMULATE


def seed_ledger(extra=()):
    assert main(SIMULATE + list(extra)) == 0


class TestHealthAndErrors:
    def test_health(self, served):
        status, payload = served.get("/api/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["runs"] == 0
        assert payload["version"].startswith("repro ")
        assert payload["uptime_s"] >= 0

    def test_unknown_endpoint_is_json_404(self, served):
        status, payload = served.get("/api/nope")
        assert status == 404
        assert "no such endpoint" in payload["error"]

    def test_unknown_run_ref_is_404(self, served):
        seed_ledger()
        status, payload = served.get("/api/runs/zzz-no-such-run")
        assert status == 404
        assert "error" in payload

    def test_bad_query_parameter_is_400(self, served):
        status, payload = served.get("/api/runs?limit=banana")
        assert status == 400
        assert "limit" in payload["error"]

    @pytest.mark.parametrize("name", ["last", "limit", "offset"])
    def test_negative_window_is_400(self, served, name):
        seed_ledger()
        status, payload = served.get(f"/api/runs?{name}=-1")
        assert status == 400
        assert payload["error"] == f"{name} must be >= 0"


class TestCorruptLedger:
    """A corrupt ``runs.jsonl`` line is a 500 naming ``PATH:LINE``; the
    keep-alive connection survives it and nothing about it is cached."""

    def test_500_names_the_line_and_the_connection_survives(self, served):
        seed_ledger()
        path = Ledger().runs_path
        with open(path, "rb") as handle:
            pristine = handle.read()
        connection = http.client.HTTPConnection(
            served.server.host, served.server.port, timeout=30
        )
        try:
            assert _get(connection, "/api/runs")[0] == 200
            with open(path, "ab") as handle:
                handle.write(b"{not json\n")
            for route in ("/api/runs", "/api/runs/latest", "/api/health"):
                status, body = _get(connection, route)
                assert status == 500, route
                assert json.loads(body)["error"].startswith(
                    f"{path}:2: corrupt ledger line ("
                )
            with open(path, "wb") as handle:
                handle.write(pristine)
            status, body = _get(connection, "/api/runs")
            assert status == 200 and json.loads(body)["total"] == 1
        finally:
            connection.close()


def _get(connection, path):
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read()


class TestRunsEndpoints:
    def test_list_matches_cli_json_exactly(self, served, capsys):
        seed_ledger()
        seed_ledger(["--seed", "8"])
        capsys.readouterr()  # drop the simulate output
        assert main(["runs", "list", "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)
        status, api_payload = served.get("/api/runs")
        assert status == 200
        assert api_payload == cli_payload
        # Byte-for-byte, not just equal-after-parsing: CI pins the two
        # with ``cmp``, so the API body must match the printed JSON
        # exactly (including the trailing newline).
        cli_text = json.dumps(cli_payload, indent=2, sort_keys=True) + "\n"
        _, _, api_text = served.get_raw("/api/runs")
        assert api_text == cli_text

    def test_list_filters_and_paginates(self, served):
        for seed in ("7", "8", "9"):
            seed_ledger(["--seed", seed])
        status, page = served.get("/api/runs?limit=2&offset=1")
        assert status == 200
        assert page["total"] == 3 and page["count"] == 2
        assert page["offset"] == 1
        status, last = served.get("/api/runs?last=2")
        assert [r["id"] for r in last["runs"]] == [
            r["id"] for r in page["runs"]
        ]
        status, none = served.get("/api/runs?kind=faults")
        assert none["total"] == 0

    def test_new_entries_visible_without_restart(self, served):
        _, before = served.get("/api/runs")
        assert before["total"] == 0
        seed_ledger()
        _, after = served.get("/api/runs")
        assert after["total"] == 1

    def test_show_matches_cli_json_exactly(self, served, capsys):
        seed_ledger()
        capsys.readouterr()  # drop the simulate output
        assert main(["runs", "show", "latest", "--json"]) == 0
        cli_entry = json.loads(capsys.readouterr().out)
        status, api_entry = served.get("/api/runs/latest")
        assert status == 200
        assert api_entry == cli_entry
        # Prefix and exact-id lookups resolve the same entry.
        status, by_id = served.get(f"/api/runs/{api_entry['id']}")
        assert by_id == api_entry
        status, by_prefix = served.get(f"/api/runs/{api_entry['id'][:8]}")
        assert by_prefix == api_entry

    def test_diff_identical_and_different(self, served):
        seed_ledger()
        seed_ledger()  # same spec + seed -> identical entries
        seed_ledger(["--seed", "8"])
        _, runs = served.get("/api/runs")
        first, second, third = [r["id"] for r in runs["runs"]]
        _, same = served.get(f"/api/diff?left={first}&right={second}")
        assert same["identical"] is True and same["differences"] == []
        _, diff = served.get(f"/api/diff?left={first}&right={third}")
        assert diff["identical"] is False
        paths = [d["path"] for d in diff["differences"]]
        assert any("manifest" in p for p in paths)

    def test_diff_requires_both_refs(self, served):
        status, payload = served.get("/api/diff?left=latest")
        assert status == 400
        assert "right" in payload["error"]

    def test_baselines_round_trip(self, served):
        seed_ledger()
        assert main(["runs", "baseline", "latest", "--label", "gold"]) == 0
        _, payload = served.get("/api/baselines")
        assert "gold" in payload["baselines"]
        _, runs = served.get("/api/runs")
        assert runs["runs"][0]["baseline"] == "gold"


class TestBenchEndpoints:
    def test_empty_then_recorded(self, served):
        _, empty = served.get("/api/bench")
        assert empty == {"trajectories": []}
        from repro.obs.ledger import record_bench_point

        record_bench_point("api_check", 1.25, "s", seed=1)
        record_bench_point("api_check", 1.5, "s", seed=1)
        _, listing = served.get("/api/bench")
        assert listing["trajectories"][0]["name"] == "api_check"
        assert listing["trajectories"][0]["points"] == 2
        assert listing["trajectories"][0]["problems"] == []
        _, one = served.get("/api/bench/api_check")
        assert [p["value"] for p in one["points"]] == [1.25, 1.5]
        assert one["problems"] == []

    def test_missing_trajectory_is_404(self, served):
        status, payload = served.get("/api/bench/never_recorded")
        assert status == 404
        assert "never_recorded" in payload["error"]


class TestScenarioEndpoint:
    def test_zoo_listing_with_horizon(self, served):
        from repro.faults.zoo import scenario_names

        status, payload = served.get("/api/scenarios?horizon=600")
        assert status == 200
        assert payload["horizon_s"] == 600.0
        assert [s["name"] for s in payload["scenarios"]] == list(
            scenario_names()
        )
        assert all(s["n_transactions"] > 0 for s in payload["scenarios"])

    @pytest.mark.parametrize("horizon", ["abc", "-5", "nan", "inf"])
    def test_bad_horizon_is_400(self, served, horizon):
        status, payload = served.get(f"/api/scenarios?horizon={horizon}")
        assert status == 400
        assert "horizon must be" in payload["error"]


def _raw_request(served, request: bytes) -> bytes:
    """Send raw bytes to the server; return everything it answers."""
    address = (served.server.host, served.server.port)
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestCampaignRequestValidation:
    def test_non_integer_content_length_is_400(self, served):
        answer = _raw_request(
            served,
            b"POST /api/campaigns HTTP/1.1\r\nHost: test\r\n"
            b"Content-Length: abc\r\nConnection: close\r\n\r\n",
        )
        head, _, body = answer.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("horizon", [100, "nan", None])
    def test_bad_horizon_is_400_before_any_job(self, served, horizon):
        status, payload = served.post(
            "/api/campaigns",
            {"scenarios": "aging_onset", "horizon": horizon},
        )
        assert status == 400
        assert "horizon must be" in payload["error"]
        assert served.get("/api/campaigns") == (200, {"jobs": []})


    @pytest.mark.parametrize(
        "body, field",
        [
            ({"seed": None}, "seed"),
            ({"seed": 1.7}, "seed"),
            ({"seed": True}, "seed"),
            ({"policies": [1]}, "policies"),
            ({"policies": None}, "policies"),
            ({"scenarios": ["aging_onset", 2]}, "scenarios"),
            ({"scenarios": None}, "scenarios"),
            ({"replications": [1]}, "replications"),
            ({"replications": 1.7}, "replications"),
            ({"replications": True}, "replications"),
            ({"slo": []}, "slo"),
        ],
    )
    def test_wrong_typed_field_is_400_naming_it(self, served, body, field):
        status, payload = served.post("/api/campaigns", body)
        assert status == 400
        assert payload["error"].startswith(f"{field} must be")
        assert served.get("/api/campaigns") == (200, {"jobs": []})


class TestPoliciesEndpoint:
    def test_lists_every_factory_policy_with_schema(self, served):
        from repro.core.factory import available_policies

        status, payload = served.get("/api/policies")
        assert status == 200
        names = [p["name"] for p in payload["policies"]]
        assert names == list(available_policies())
        adaptive = next(
            p for p in payload["policies"] if p["name"] == "adaptive"
        )
        assert adaptive["summary"]
        assert {param["name"] for param in adaptive["params"]} == {
            "n", "window", "k", "patience", "grow", "warmup",
        }
        for param in adaptive["params"]:
            assert set(param) == {"name", "type", "default", "doc"}

    def test_labels_cover_paper_trio_and_detectors(self, served):
        _, payload = served.get("/api/policies")
        labels = {entry["label"]: entry for entry in payload["labels"]}
        assert set(labels) == {
            "SRAA", "SARAA", "CLTA", "ADAPTIVE", "ENTROPY", "TREND",
        }
        assert labels["SRAA"]["policy"] == "sraa"
        assert labels["SRAA"]["params"] == {"n": 2, "K": 5, "D": 3}
        assert labels["TREND"]["policy"] == "predictor"

    def test_campaign_launch_rejects_unknown_policy_naming_choices(
        self, served
    ):
        status, payload = served.post(
            "/api/campaigns",
            {
                "scenarios": ["aging_onset"],
                "policies": ["bogus"],
                "replications": 1,
            },
        )
        assert status == 400
        message = payload["error"]
        for spelling in ("SRAA", "ADAPTIVE", "ENTROPY", "TREND", "sraa"):
            assert spelling in message


class TestDashboard:
    @pytest.mark.parametrize("path", ["/", "/dashboard"])
    def test_served_and_self_contained(self, served, path):
        status, headers, page = served.get_raw(path)
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        assert page.startswith("<!DOCTYPE html>")
        # Same self-containment bar as `repro report` output.
        for marker in ("http://", "https://", "src=", "@import"):
            assert marker not in page
        for hook in ("/api/events", "/api/runs", "/api/campaigns"):
            assert hook in page


class TestLiveEndpoint:
    def test_empty_until_a_snapshot_exists(self, served):
        status, payload = served.get("/api/live")
        assert status == 200 and payload == {}
        served.server.broker.publish("live.snapshot", {"completed": 3})
        _, payload = served.get("/api/live")
        assert payload["completed"] == 3
