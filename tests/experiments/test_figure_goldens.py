"""Golden sha256 digests of the paper-figure tables at a small scale.

``run_experiment(...).format_text()`` for the three simulated paper
figures, at 2000 transactions x 1 replication over loads 0.5, 6 and 9,
seed 2006, on the serial backend.  The digests were captured before the
single node and the balanced cluster became one system class, so the
merged model is pinned to the exact tables the Section-3 node printed.
"""

import hashlib

import pytest

from repro.exec.backends import SerialBackend
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


@pytest.mark.parametrize("name", sorted(FIGURE_DIGESTS))
def test_figure_table_matches_golden(name):
    text = run_experiment(
        name, SCALE, seed=2006, backend=SerialBackend()
    ).format_text()
    assert hashlib.sha256(text.encode()).hexdigest() == FIGURE_DIGESTS[name]
