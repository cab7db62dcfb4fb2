"""Golden sha256 digests of the trace exports.

Small seeded runs through ``repro.cli.main`` write the JSONL trace, the
Chrome ``trace_event`` JSON and the Prometheus snapshot; their digests
were captured when a run could still buffer ``TraceEvent`` objects, so
the columnar collection path is pinned to the exact bytes the dict path
wrote.  The same digests must come out of the serial and the 2-worker
process-pool backend, with and without the ``--live`` tap riding along
(the ``TeeTracer`` path), and from a sharded fleet campaign whose shard
traces are merged by simulated time.  ``repro trace convert`` must
give the same JSONL bytes back, from a JSONL trace taken through
``.rcol`` and from a trace written as ``.rcol`` in the first place.
The ``.rcol`` bytes are pinned as well: the run written as ``.rcol``
on either backend, the fleet campaign written as ``.rcol.gz``, and
the JSONL trace converted to ``.rcol`` (one segment, since a JSONL
file is read as one).
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

SIMULATE_RCOL_DIGEST = (
    "8d00896b181280d5a761937d6fd923284e57641e93f8d1e17dd11fa204fd585e"
)

FLEET_RCOL_GZ_DIGEST = (
    "8a7ee125d4e1757eae59afe01fb3adb9eaa6c52ea0db828a1ca3bf1c8004610a"
)

CONVERTED_RCOL_DIGEST = (
    "920f55682b6742cf07bd411f2f0c838a50e0323e7f3e8e89ec1337efd0a1302d"
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


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_simulate_rcol_matches_golden(tmp_path, capsys, backend):
    trace = tmp_path / "trace.rcol"
    assert main(SIMULATE + BACKENDS[backend] + ["--trace", str(trace)]) == 0
    assert sha256(trace) == SIMULATE_RCOL_DIGEST


@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_fleet_campaign_rcol_gz_matches_golden(tmp_path, capsys, backend):
    trace = tmp_path / "fleet.rcol.gz"
    assert main(FLEET + BACKENDS[backend] + ["--trace", str(trace)]) == 0
    assert sha256(trace) == FLEET_RCOL_GZ_DIGEST


def test_jsonl_converted_to_rcol_matches_golden(tmp_path, capsys):
    jsonl, rcol = str(tmp_path / "trace.jsonl"), str(tmp_path / "t.rcol")
    assert main(SIMULATE + BACKENDS["serial"] + ["--trace", jsonl]) == 0
    assert main(["trace", "convert", jsonl, rcol]) == 0
    assert sha256(rcol) == CONVERTED_RCOL_DIGEST


def test_converted_trace_matches_golden(tmp_path, capsys):
    jsonl, rcol = str(tmp_path / "trace.jsonl"), str(tmp_path / "t.rcol")
    converted = {
        "via-rcol": str(tmp_path / "via-rcol.jsonl"),
        "from-rcol": str(tmp_path / "from-rcol.jsonl"),
    }
    assert main(SIMULATE + BACKENDS["serial"] + ["--trace", jsonl]) == 0
    assert main(["trace", "convert", jsonl, rcol]) == 0
    assert main(["trace", "convert", rcol, converted["via-rcol"]]) == 0
    assert main(SIMULATE + BACKENDS["serial"] + ["--trace", rcol]) == 0
    assert main(["trace", "convert", rcol, converted["from-rcol"]]) == 0
    assert {name: sha256(path) for name, path in converted.items()} == {
        name: SIMULATE_DIGESTS["trace.jsonl"] for name in converted
    }
