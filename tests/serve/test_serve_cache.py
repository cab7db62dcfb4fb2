"""The response cache of the ledger and bench routes.

A cached body must be byte-identical to a fresh render of the state the
GET read, so every test here changes that state in one way and checks
that the next GET of the same path sees it.
"""

import http.client
import json
import os
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.obs.ledger import Ledger, record_bench_point
from repro.serve import app as serve_app
from tests.obs.test_ledger_store import make_manifest


@pytest.fixture
def conn(served):
    """One keep-alive connection to the served ledger."""
    connection = http.client.HTTPConnection(
        served.server.host, served.server.port, timeout=30
    )
    yield connection
    connection.close()


def get(connection, path):
    """``(status, body bytes)`` of one GET on ``connection``."""
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read()


def append(seed):
    """Record one run through a Ledger the server does not share."""
    return Ledger().append(make_manifest(seed=seed), {"seed": seed})


def test_repeat_gets_match_the_cli_byte_for_byte(conn, capsys):
    append(1)
    append(2)
    assert main(["runs", "list", "--json"]) == 0
    cli = capsys.readouterr().out.encode("utf-8")
    first = get(conn, "/api/runs")
    assert first == (200, cli)
    assert get(conn, "/api/runs") == first


def test_append_by_another_ledger_shows_on_next_get(conn):
    append(1)
    _, before = get(conn, "/api/runs?limit=5")
    assert json.loads(before)["total"] == 1
    added = append(2)
    _, after = get(conn, "/api/runs?limit=5")
    assert json.loads(after)["total"] == 2
    assert json.loads(after)["runs"][-1]["id"] == added["id"]


def test_pinning_a_baseline_updates_the_listing(conn):
    append(1)
    _, before = get(conn, "/api/runs")
    assert json.loads(before)["runs"][0]["baseline"] is None
    assert main(["runs", "baseline", "latest", "--label", "gold"]) == 0
    _, after = get(conn, "/api/runs")
    assert json.loads(after)["runs"][0]["baseline"] == "gold"


def test_same_length_bench_rewrite_changes_the_listing(conn):
    point = record_bench_point("cached", 1.25, "s", seed=1)
    _, before = get(conn, "/api/bench")
    latest = json.loads(before)["trajectories"][0]["latest"]
    assert latest["value"] == point["value"] == 1.25
    path = os.path.join(os.environ["REPRO_BENCH_DIR"], "BENCH_cached.json")
    with open(path, "rb") as handle:
        data = handle.read()
    edited = data.replace(b"1.25", b"1.75")
    assert len(edited) == len(data)
    with open(path, "r+b") as handle:
        handle.write(edited)
    _, after = get(conn, "/api/bench")
    assert json.loads(after)["trajectories"][0]["latest"]["value"] == 1.75
    _, one = get(conn, "/api/bench/cached")
    assert json.loads(one)["points"][0]["value"] == 1.75


def test_same_inode_rewrite_of_the_last_line_gives_a_fresh_body(conn):
    append(1)
    append(2)
    _, before = get(conn, "/api/runs/latest")
    assert json.loads(before)["outcomes"] == {"seed": 2}
    path = Ledger().runs_path
    inode = os.stat(path).st_ino
    with open(path, "rb") as handle:
        data = handle.read()
    edited = data.replace(b'"outcomes":{"seed":2}', b'"outcomes":{"seed":9}')
    assert edited != data and len(edited) == len(data)
    with open(path, "r+b") as handle:
        handle.write(edited)
    assert os.stat(path).st_ino == inode
    _, after = get(conn, "/api/runs/latest")
    assert json.loads(after)["outcomes"] == {"seed": 9}


def test_errors_are_not_cached(conn):
    append(1)
    status, body = get(conn, "/api/runs/sim-0002")
    assert status == 404 and b"no ledger entry" in body
    added = append(2)
    status, body = get(conn, "/api/runs/sim-0002")
    assert status == 200
    assert json.loads(body)["id"] == added["id"]


def held(cache):
    """Bytes of the paths and bodies ``cache`` holds."""
    return sum(len(key) + len(body) for key, body in cache._bodies.items())


def test_distinct_paths_past_the_cap_stay_bounded(
    served, conn, monkeypatch
):
    append(1)
    _, body = get(conn, "/api/runs?limit=0")
    cap = 4 * len(body)
    monkeypatch.setattr(serve_app, "BODY_CACHE_BYTES", cap)
    for offset in range(11):
        status, _ = get(conn, f"/api/runs?limit=0&offset={offset}")
        assert status == 200
        cache = served.server.ledger_bodies
        assert 0 < held(cache) == cache.nbytes <= cap
    # A body larger than the whole budget is served, never kept.
    status, big = get(conn, "/api/runs/latest")
    assert status == 200 and len(big) > cap
    assert held(served.server.ledger_bodies) <= cap
    # Keys count too: padded query strings of tiny bodies stay bounded.
    for offset in range(11):
        pad = "x" * (cap // 3)
        status, small = get(conn, f"/api/baselines?pad={pad}{offset}")
        assert status == 200 and len(small) < 100
        cache = served.server.ledger_bodies
        assert 0 < held(cache) == cache.nbytes <= cap


def test_one_render_per_ledger_state(conn, monkeypatch):
    from repro.obs.ledger import summary

    calls = []
    render = summary.runs_payload

    def counting(*args, **kwargs):
        calls.append(1)
        return render(*args, **kwargs)

    monkeypatch.setattr(summary, "runs_payload", counting)
    append(1)
    bodies = {get(conn, "/api/runs")[1] for _ in range(5)}
    assert len(calls) == 1 and len(bodies) == 1
    append(2)
    bodies |= {get(conn, "/api/runs")[1] for _ in range(5)}
    assert len(calls) == 2 and len(bodies) == 2


def test_threads_sharing_a_cache_only_get_bodies_of_their_state():
    cache = serve_app.BodyCache()
    wrong = []

    def worker(index):
        for step in range(5000):
            state = (step // 7 + index) % 5
            key = f"/api/runs?limit={step % 11}"
            body = cache.get(state, key)
            if body is None:
                time.sleep(0)  # render outside the lock, as a GET does
                cache.put(state, key, f"{state} {key}".encode())
            elif body != f"{state} {key}".encode():
                wrong.append((state, key, body))

    threads = [
        threading.Thread(target=worker, args=(index,)) for index in range(4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    # Two racing renders of one path store it twice; it counts once.
    cache.get("last", "/api/runs")
    cache.put("last", "/api/runs", b"rendered first")
    cache.put("last", "/api/runs", b"second")
    assert cache.nbytes == len("/api/runs") + len(b"second")
