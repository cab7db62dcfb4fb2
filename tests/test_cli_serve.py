"""CLI surfaces of the serving plane: `repro serve`, `top --follow`.

The server itself is exercised over real sockets in tests/serve/; here
we pin the argparse wiring and the follower loop (the observer side of
``repro top --follow``), including its source-resolution rules.
"""

import json
import os
import subprocess
import sys

import repro
from repro.cli import _build_parser, main
from repro.obs.live import follow_snapshots, read_snapshot_source
from repro.serve import ReproServer

SNAPSHOT = {
    "ts": 120.0,
    "completed": 450,
    "lost": 3,
    "rate_per_s": 3.75,
    "rejuvenations": 2,
    "faults": 1,
    "flight_dumps": 4,
    "rt_quantiles": {"p50": 0.4, "p99": 2.5},
}


class TestParserWiring:
    def test_serve_flags(self):
        args = _build_parser().parse_args(
            ["serve", "--port", "0", "--host", "127.0.0.1",
             "--ledger", "/tmp/l", "--bench-dir", "/tmp/b"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.ledger_dir == "/tmp/l"
        assert args.bench_dir == "/tmp/b"

    def test_top_follow_flags(self):
        args = _build_parser().parse_args(
            ["top", "--follow", "0.5", "--url", "http://x:1/",
             "--frames", "3"]
        )
        assert args.follow == 0.5
        assert args.frames == 3

    def test_runs_list_json_flag(self):
        args = _build_parser().parse_args(["runs", "list", "--json"])
        assert args.json is True


class TestSnapshotSource:
    def test_file_source(self, tmp_path):
        path = tmp_path / "live.json"
        path.write_text(json.dumps(SNAPSHOT))
        assert read_snapshot_source(str(path)) == SNAPSHOT

    def test_http_source(self, tmp_path):
        server = ReproServer(port=0).start()
        try:
            server.broker.publish("live.snapshot", dict(SNAPSHOT))
            got = read_snapshot_source(server.url + "/api/live")
            assert got == SNAPSHOT
        finally:
            server.close()


class TestFollow:
    def test_renders_bounded_frames_from_file(self, tmp_path, capsys):
        path = tmp_path / "live.json"
        path.write_text(json.dumps(SNAPSHOT))
        sleeps = []
        painted = follow_snapshots(
            str(path), interval_s=0.01, frames=2,
            sleep=sleeps.append,
        )
        err = capsys.readouterr().err
        assert painted == 2
        assert sleeps == [0.01]  # no sleep after the final frame
        assert "repro top" in err
        assert "completed       450" in err
        assert "flight dumps   4" in err
        assert "p50=  0.400s" in err

    def test_empty_snapshot_paints_waiting_line(self, tmp_path, capsys):
        path = tmp_path / "live.json"
        path.write_text("{}")
        assert follow_snapshots(str(path), frames=1) == 1
        assert "no live snapshot" in capsys.readouterr().err

    def test_fetch_errors_do_not_abort_the_loop(self, tmp_path, capsys):
        painted = follow_snapshots(
            str(tmp_path / "missing.json"), interval_s=0.0, frames=2
        )
        assert painted == 2
        assert "waiting on" in capsys.readouterr().err

    def test_cli_follow_against_a_live_server(self, capsys):
        server = ReproServer(port=0).start()
        try:
            server.broker.publish("live.snapshot", dict(SNAPSHOT))
            # A base URL (no /api/ path) resolves to /api/live.
            assert main(
                ["top", "--follow", "0.01", "--url", server.url,
                 "--frames", "2"]
            ) == 0
        finally:
            server.close()
        err = capsys.readouterr().err
        assert err.count("repro top") == 2
        assert "completed       450" in err


class TestClose:
    def test_close_without_start_returns(self, tmp_path):
        # A server that never served has no serve loop for close() to
        # wait on; a fresh interpreter keeps a hang from stalling the
        # suite.
        probe = (
            "from repro.serve import ReproServer\n"
            "ReproServer(port=0, ledger_dir='ledger').close()\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        subprocess.run(
            [sys.executable, "-c", probe],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": src},
            timeout=30,
            check=True,
        )
