"""Golden sha256 digests of the paper-figure tables at a small scale.

``run_experiment(...).format_text()`` for the three simulated paper
figures, at 2000 transactions x 1 replication over loads 0.5, 6 and 9,
seed 2006, on the serial backend.  The digests were captured before the
single node and the balanced cluster became one system class, so the
merged model is pinned to the exact tables the Section-3 node printed.

The ``degradation`` study joins them on the serial backend and on a
2-worker pool.  Its digest was captured from the hand-rolled eroding
M/M/c model, before that model became a ``CapacityErosion`` fault on
the Section-3 node, so the fold is pinned to the tables it replaced.
"""

import hashlib

import pytest

from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.registry import run_experiment
from repro.experiments.scale import Scale

SCALE = Scale(2000, 1, (0.5, 6.0, 9.0))

FIGURE_DIGESTS = {
    "fig09_10": (
        "41a9a3d1c3990a9a62d8b009ba580bf5a7a6691b1ef7882f18b8f22f24cd76cf"
    ),
    "fig15": (
        "f0d5e6f9cf42203d9d67667a016609ab171f35e21f1d888c648046d0defeee5d"
    ),
    "fig16": (
        "149b77ce0ab9751a694c1ebe229a131df379abd7eda2a769be8515a6ec724b86"
    ),
}

DEGRADATION_DIGEST = (
    "41554868819345573f2337d49230fc51f5898e757f7c7da55ecfed1aaee5aad3"
)


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_table_matches_golden(name):
    text = run_experiment(
        name, SCALE, seed=2006, backend=SerialBackend()
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_DIGESTS[name]


@pytest.mark.parametrize(
    "backend",
    [SerialBackend(), ProcessPoolBackend(2)],
    ids=["serial", "pool"],
)
def test_degradation_table_matches_golden(backend):
    text = run_experiment(
        "degradation", SCALE, seed=2006, backend=backend
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == DEGRADATION_DIGEST
