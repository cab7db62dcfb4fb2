"""Golden sha256 digests of runs that go through the coordinator.

Captured while the cluster layer and the fleet schedulers still had
one coordinator class each, so the single coordinator is pinned to
the exact runs both of them produced:

* ``run_cluster`` and ``run_fleet`` text tables at the tiny scale of
  ``tests/experiments/test_beyond_paper.py``, seed 0, on the serial
  backend and on a 2-worker pool;
* the scores CSV and the ledger manifest hash of a small
  ``faults run`` campaign on a cluster (unrestricted and rolling) and
  on a canary-scheduled fleet.
"""

import hashlib

import pytest

from repro.cli import main
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.registry import run_experiment
from repro.experiments.scale import Scale
from repro.obs.ledger import Ledger

TINY = Scale(transactions=600, replications=1, loads=(9.0,), label="tiny")

TABLE_DIGESTS = {
    "cluster": (
        "6c3e41c97fae01e26bf408d9cba4ce64bb1f82e85ec09e1c1694c30d78f0105c"
    ),
    "fleet": (
        "bb128fd03d1055156bb06e4cf38805d186df1e8c47f38f62ab46d1fceb30bdce"
    ),
}

CAMPAIGN = [
    "faults", "run", "aging_onset",
    "--policies", "SRAA,CLTA",
    "--replications", "1",
    "--seed", "3",
    "--horizon", "300",
    "--backend", "serial",
]

#: name -> (extra argv, scores CSV sha256, manifest hash)
CAMPAIGN_GOLDENS = {
    "cluster": (
        ["--system", "cluster"],
        "9f0d5ed24610196fe1c716a074c9ba7fba25e8a0b914edd0676ef87e2e12fbec",
        "97ec2c262f2b041169552c1e39888c5ce56593c95d1d5e6931fef61121919148",
    ),
    "cluster_rolling": (
        ["--system", "cluster", "--scheduler", "rolling",
         "--max-nodes-down", "1", "--min-gap", "30"],
        "8df690c6f94b32efe85bbec1b2802b5756f7039ae781e17e0fe27f494ab63765",
        "401e9ae83989fb3824c49f05be51a564c08f8c7449675591f1885c047b4d2618",
    ),
    "fleet_canary": (
        ["--system", "fleet", "--nodes", "8", "--shards", "2",
         "--scheduler", "canary", "--capacity-floor", "0.75"],
        "7da79346fac57125fc3c864229c4600ca0b511a72a022bdf15e08fc46d3ffbac",
        "a67204d2ed747f3754ea7757d75042228c5b290331b6644053658bf2ff8a5777",
    ),
}


BACKENDS = {"serial": SerialBackend(), "pool": ProcessPoolBackend(2)}


@pytest.mark.parametrize(
    "name, backend",
    [
        # The serial cases keep the ids they had before the pool joined.
        pytest.param(
            name, backend, id=name if backend == "serial" else f"{name}-pool"
        )
        for name in sorted(TABLE_DIGESTS)
        for backend in sorted(BACKENDS)
    ],
)
def test_experiment_table_matches_golden(name, backend):
    text = run_experiment(
        name, TINY, seed=0, backend=BACKENDS[backend]
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_GOLDENS))
def test_campaign_matches_golden(name, tmp_path, capsys):
    extra, csv_digest, manifest_hash = CAMPAIGN_GOLDENS[name]
    path = tmp_path / "scores.csv"
    assert main(CAMPAIGN + extra + ["--csv", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == csv_digest
    entry = Ledger().get("latest")
    assert entry["manifest"]["manifest_hash"] == manifest_hash
