"""Golden sha256 digests of experiments that run job grids.

``run_experiment(...).format_text()`` for the experiments below at the
tiny scale of ``tests/experiments/test_beyond_paper.py``, seed 0, on the
serial backend; the JSONL trace that ``repro run fig16 --trace`` writes
at the smoke scale, which pins the job stamping and ingestion of a
traced sweep; and the JSONL trace of a traced tiny ``zoo`` run.  The
digests were captured while ``autocorr`` still ran its replications by
hand, ``faults`` and ``detectors`` still built their tables separately,
and ``zoo``, ``ablations`` and ``fidelity`` still ran one job list per
point.
"""

import hashlib

import pytest

from repro.cli import main
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.registry import run_experiment
from repro.experiments.scale import Scale
from repro.obs.session import TraceSession, use_tracing

TINY = Scale(transactions=600, replications=1, loads=(9.0,), label="tiny")

TABLE_DIGESTS = {
    "autocorr": (
        "edb492468eb8d06f77763023605ead5e073466e8f25f2639ef6a6819b09f5965"
    ),
    "faults": (
        "cc5b8e8eb58a6b387d7b9661a7d6447d73d107a754a3acc99ca9e6df85650827"
    ),
    "detectors": (
        "f837a549790cb2505717064bdb2efe399df93a9630bcc2e95d9df897b89dec21"
    ),
    "zoo": (
        "d685b746683e9f6f370521769fe1125adf2c2ca2e18db3927c6d10b56709c3ee"
    ),
    "ablations": (
        "83b7f9d44a551807120115bd5b153378264191d10900aebec549afb0393b70c6"
    ),
    "fidelity": (
        "51687f9508b66ea8063012166611ad717907f605470692b09873768e5e39f3d8"
    ),
    "cluster": (
        "6c3e41c97fae01e26bf408d9cba4ce64bb1f82e85ec09e1c1694c30d78f0105c"
    ),
    "fleet": (
        "bb128fd03d1055156bb06e4cf38805d186df1e8c47f38f62ab46d1fceb30bdce"
    ),
}

FIG16_TRACE_DIGEST = (
    "1d94ee9074a46a24754f7bdc41796ce5f24afaa2c2c8e77c4ed80dcc7042a00a"
)

#: ``zoo`` at TINY, seed 0, traced at level ``decisions`` (5262 lines).
ZOO_TRACE_DIGEST = (
    "f045d6c78e2884283cc3ec8937984d325e331764ae6bfc69cf37e8b96f5a1b0c"
)


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_experiment_table_matches_golden(name):
    text = run_experiment(
        name, TINY, seed=0, backend=SerialBackend()
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


@pytest.mark.parametrize("name", ["zoo", "ablations"])
def test_pooled_experiment_table_matches_golden(name):
    text = run_experiment(
        name, TINY, seed=0, backend=ProcessPoolBackend(2)
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


def test_zoo_trace_matches_golden(tmp_path):
    session = TraceSession("decisions")
    with use_tracing(session):
        run_experiment("zoo", TINY, seed=0, backend=SerialBackend())
    trace = tmp_path / "zoo.jsonl"
    assert session.write_jsonl(str(trace)) == 5262
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == ZOO_TRACE_DIGEST


def test_fig16_trace_matches_golden(tmp_path, capsys):
    trace = tmp_path / "fig16.jsonl"
    argv = [
        "run", "fig16",
        "--scale", "smoke",
        "--backend", "serial",
        "--trace", str(trace),
        "--no-ledger",
    ]
    assert main(argv) == 0
    capsys.readouterr()
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    assert digest == FIG16_TRACE_DIGEST
