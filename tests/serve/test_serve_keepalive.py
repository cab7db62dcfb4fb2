"""The serve hot path: keep-alive latency and per-request work.

Over one HTTP/1.1 keep-alive connection a response must leave in one
go.  Written as two sends (headers, then body) with Nagle's algorithm
on, the body waits for the client's delayed ACK -- ~40 ms per request
whatever the host's speed -- so 20 requests take >= 800 ms.
"""

import http.client
import json
import subprocess
import time

from repro.serve.app import _Handler


def test_handler_sends_one_buffered_write_without_nagle():
    assert _Handler.disable_nagle_algorithm is True
    assert _Handler.wbufsize == -1


def test_twenty_keepalive_gets_beat_the_delayed_ack(served):
    server = served.server
    connection = http.client.HTTPConnection(
        server.host, server.port, timeout=30
    )
    try:
        # Warm-up: connection set-up and first-request imports.
        connection.request("GET", "/api/health")
        connection.getresponse().read()
        started = time.perf_counter()
        for _ in range(20):
            connection.request("GET", "/api/health")
            response = connection.getresponse()
            assert response.status == 200
            json.loads(response.read())
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"


def test_health_and_dashboard_spawn_no_subprocess(served, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"subprocess spawned: {args!r}")

    monkeypatch.setattr(subprocess, "run", forbidden)
    monkeypatch.setattr(subprocess, "Popen", forbidden)
    status, payload = served.get("/api/health")
    assert status == 200
    assert payload["version"] == served.server.version
    status, _, page = served.get_raw("/")
    assert status == 200
    assert served.server.version in page
