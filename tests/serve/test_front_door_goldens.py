"""Golden sha256 digests of what the two front doors print and serve.

``repro faults run`` / ``POST /api/campaigns``, ``repro runs list`` /
``GET /api/runs`` and ``repro runs bench`` / ``GET /api/bench`` share
one implementation per operation.  These digests were captured while
each door still had its own copy, so the shared code is pinned to the
exact bytes both doors produced:

* the ``--help`` text of ``faults run``, ``faults list``, ``runs list``
  and ``runs bench`` (80 columns);
* ``runs list`` (text and ``--json``) and ``GET /api/runs`` over a
  fixed three-entry ledger, for ``last`` unset, 1 and 3 -- the JSON
  bytes are the same from both doors;
* ``runs bench --dir`` and ``GET /api/bench`` served with
  ``--bench-dir`` over ``ci/bench`` as it stood when the digests were
  captured: points appended since are dropped from a copy, so a new
  trajectory point leaves both digests alone;
* the manifest hash of one small ``faults run`` campaign.
"""

import hashlib
import json
import os
import urllib.request

import pytest

from repro.cli import main
from repro.serve import ReproServer

BENCH_DIR = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "ci", "bench"
)

HELP_DIGESTS = {
    "faults run": (
        "940e2d4a1b515b88c4c1f4408f7e2c7f1cf1e92d0155f1ec4d30d18fda6218ed"
    ),
    "faults list": (
        "c7f3ca0436b57cfd63f68c19b3f29a5ce766761bb2a1710637ad2e7e91262f13"
    ),
    "runs list": (
        "2171339da83e1a055790b71cff0c2aecf7ba12e8408ab93ece69c3279421b84e"
    ),
    "runs bench": (
        "c0d3970fcb22c306a65b6a3cf35d6c514093705428091e75dd65e68ede132d0c"
    ),
}

#: ``runs list --json`` == ``GET /api/runs`` bytes, keyed by ``last``.
RUNS_JSON_DIGESTS = {
    None: (
        "0b52e33c4b24cad4a74c81d106f9d5271db6029d0ef382dcc564981c0b6bdd45"
    ),
    1: (
        "e1d82619d1c5e1a05c7230ecb962856680b46f4a86fc46740dd48d9e53b5c92d"
    ),
    3: (
        "0b52e33c4b24cad4a74c81d106f9d5271db6029d0ef382dcc564981c0b6bdd45"
    ),
}

#: ``runs list`` text, keyed by ``last``.
RUNS_TEXT_DIGESTS = {
    None: (
        "e9b3a0f0cb60c3f9bc973249d32913e45236da9a8b1a30630ab01704dccb3816"
    ),
    1: (
        "8cc8a7de14d35f2da6f1b5300d65d16c53cf69fd3b79c9596c3f649a2b561589"
    ),
    3: (
        "e9b3a0f0cb60c3f9bc973249d32913e45236da9a8b1a30630ab01704dccb3816"
    ),
}

BENCH_TEXT_DIGEST = (
    "d6abe221972687dee4e3f286e91fcbb7b0d5a167f7d072f967060af8354cbc25"
)
BENCH_API_DIGEST = (
    "d07b6ee6b9c1edddae765321082b281cf70bd81e5cf6eef3c5a0d654b5967fd0"
)
#: When the two bench digests were captured (the commit that added them).
BENCH_CAPTURED_UTC = "2026-10-17T11:34:11+00:00"

CAMPAIGN = [
    "faults", "run", "aging_onset",
    "--policies", "SRAA",
    "--replications", "1",
    "--seed", "3",
    "--horizon", "300",
    "--backend", "serial",
]
CAMPAIGN_MANIFEST_HASH = (
    "889bd851276125aa5e7544ef4d065216d0cec90075b593e09047223742d054a7"
)


def _entry(seq, kind, label, digest, wall_clock_s):
    return {
        "schema_version": 1,
        "id": f"{kind[:3]}-{seq:04d}-{digest[:8]}",
        "created_utc": f"2026-01-0{seq}T00:00:00+00:00",
        "kind": kind,
        "label": label,
        "manifest": {"manifest_hash": digest},
        "outcomes": {},
        "timing": (
            {} if wall_clock_s is None else {"wall_clock_s": wall_clock_s}
        ),
    }


#: Three runs of two kinds, one pinned, one without timing.
ENTRIES = [
    _entry(1, "simulate", "simulate:sraa", "a" * 64, 1.5),
    _entry(2, "faults", "faults:aging_onset", "b" * 64, None),
    _entry(3, "simulate", "simulate:clta", "c" * 64, 0.25),
]


def _sha(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def ledger_dir(tmp_path):
    directory = tmp_path / "fixed-ledger"
    directory.mkdir()
    with open(directory / "runs.jsonl", "w", encoding="utf-8") as handle:
        for entry in ENTRIES:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
    pins = {
        "ci": {
            "id": ENTRIES[0]["id"],
            "manifest_hash": "a" * 64,
            "pinned_utc": "2026-01-04T00:00:00+00:00",
        }
    }
    with open(directory / "baselines.json", "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return str(directory)


def _served_bytes(path, **server_args):
    server = ReproServer(port=0, **server_args).start()
    try:
        with urllib.request.urlopen(server.url + path, timeout=30) as reply:
            assert reply.status == 200
            return reply.read()
    finally:
        server.close()


def _cli_out(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        main(command.split() + ["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert _sha(out) == HELP_DIGESTS[command], out


@pytest.mark.parametrize("last", [None, 1, 3])
def test_runs_listing(last, ledger_dir, capsys):
    window = [] if last is None else ["--last", str(last)]
    base = ["runs", "list", "--ledger", ledger_dir] + window
    code, text = _cli_out(base, capsys)
    assert code == 0
    assert _sha(text) == RUNS_TEXT_DIGESTS[last], text
    code, cli_json = _cli_out(base + ["--json"], capsys)
    assert code == 0
    assert _sha(cli_json) == RUNS_JSON_DIGESTS[last], cli_json
    query = "" if last is None else f"?last={last}"
    served = _served_bytes(f"/api/runs{query}", ledger_dir=ledger_dir)
    assert served == cli_json.encode("utf-8")


@pytest.fixture
def bench_dir(tmp_path):
    """A copy of ``ci/bench`` holding only the points recorded by
    :data:`BENCH_CAPTURED_UTC` (a trajectory started later is left
    out whole)."""
    directory = tmp_path / "bench"
    directory.mkdir()
    for name in sorted(os.listdir(BENCH_DIR)):
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as handle:
            trajectory = json.load(handle)
        trajectory["points"] = [
            point
            for point in trajectory["points"]
            if point["timestamp"] <= BENCH_CAPTURED_UTC
        ]
        if not trajectory["points"]:
            continue
        with open(directory / name, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return str(directory)


def test_bench_listing(capsys, bench_dir):
    code, text = _cli_out(["runs", "bench", "--dir", bench_dir], capsys)
    assert code == 0
    assert _sha(text) == BENCH_TEXT_DIGEST, text
    served = _served_bytes("/api/bench", bench_dir=bench_dir)
    assert _sha(served) == BENCH_API_DIGEST, served


def test_campaign_manifest_hash(capsys):
    from repro.obs.ledger import Ledger

    assert main(CAMPAIGN) == 0
    entry = Ledger().get("latest")
    assert entry["manifest"]["manifest_hash"] == CAMPAIGN_MANIFEST_HASH
