"""Golden sha256 digests of the trace exports.

Small seeded runs through ``repro.cli.main`` write the JSONL trace, the
Chrome ``trace_event`` JSON and the Prometheus snapshot; their digests
were captured when a run could still buffer ``TraceEvent`` objects, so
the columnar collection path is pinned to the exact bytes the dict path
wrote.  The same digests must come out of the serial and the 2-worker
process-pool backend, with and without the ``--live`` tap riding along
(the ``TeeTracer`` path), and from a sharded fleet campaign whose shard
traces are merged by simulated time.
"""

import hashlib

import pytest

from repro.cli import main

SIMULATE = [
    "simulate",
    "--policy", "sraa",
    "-p", "n=2", "-p", "K=5", "-p", "D=3",
    "--load", "9",
    "--transactions", "1500",
    "--replications", "2",
    "--seed", "11",
    "--no-ledger",
]

FLEET = [
    "faults", "run", "false_aging",
    "--replications", "2",
    "--horizon", "300",
    "--seed", "0",
    "--policies", "SRAA",
    "--system", "fleet",
    "--nodes", "8",
    "--shards", "2",
]

BACKENDS = {
    "serial": ["--backend", "serial"],
    "pool": ["--backend", "process", "--workers", "2"],
}

SIMULATE_DIGESTS = {
    "trace.jsonl": (
        "49e6fe7d17cc909a9a18aaeec0b601ff4c4ae7a891a3b5a96f91f5351ff55478"
    ),
    "chrome.json": (
        "0045f38f3187f36293aaaa75904416e0bb920f161e053dafb546caccc8f6672d"
    ),
    "metrics.prom": (
        "a83dd7b46d3e5b498da1eab38459af1f2fcab3c59d7bb8807ddf141a57e51171"
    ),
}

FLEET_JSONL_DIGEST = (
    "cd0d456c0aa3ee7956b608da7769e62c6a4fc051f69282f1a96205289b98e3c6"
)


def sha256(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def simulate_digests(tmp_path, extra):
    paths = {name: tmp_path / name for name in SIMULATE_DIGESTS}
    assert (
        main(
            SIMULATE
            + extra
            + [
                "--trace", str(paths["trace.jsonl"]),
                "--trace-chrome", str(paths["chrome.json"]),
                "--metrics", str(paths["metrics.prom"]),
            ]
        )
        == 0
    )
    return {name: sha256(path) for name, path in paths.items()}


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_simulate_exports_match_golden(tmp_path, capsys, backend, live):
    extra = BACKENDS[backend] + (["--live"] if live else [])
    assert simulate_digests(tmp_path, extra) == SIMULATE_DIGESTS


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fleet_campaign_jsonl_matches_golden(tmp_path, capsys, backend):
    trace = tmp_path / "fleet.jsonl"
    assert main(FLEET + BACKENDS[backend] + ["--trace", str(trace)]) == 0
    assert sha256(trace) == FLEET_JSONL_DIGEST
