"""Golden sha256 digests of experiments that run job grids.

``run_experiment(...).format_text()`` for ``autocorr``, ``faults`` and
``detectors`` at the tiny scale of ``tests/experiments/test_beyond_paper.py``,
seed 0, on the serial backend; and the JSONL trace that ``repro run
fig16 --trace`` writes at the smoke scale, which pins the job stamping
and ingestion of a traced sweep.  The digests were captured while
``autocorr`` still ran its replications by hand and ``faults`` and
``detectors`` still built their tables separately.
"""

import hashlib

import pytest

from repro.cli import main
from repro.exec.backends import SerialBackend
from repro.experiments.registry import run_experiment
from repro.experiments.scale import Scale

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
}

FIG16_TRACE_DIGEST = (
    "1d94ee9074a46a24754f7bdc41796ce5f24afaa2c2c8e77c4ed80dcc7042a00a"
)


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_experiment_table_matches_golden(name):
    text = run_experiment(
        name, TINY, seed=0, backend=SerialBackend()
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == TABLE_DIGESTS[name]


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
