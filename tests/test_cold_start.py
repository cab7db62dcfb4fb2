"""Cold start: the entry points load no module they do not use.

Every ``repro`` command, ``repro serve`` and every benchmark process pays
its imports before doing any work.  ``scipy.stats`` alone used to be
most of that, so SciPy is imported inside the functions that need it.
The package ``__init__``\\ s export their names lazily, and the entry
points import simulation code where they use it, so a fresh interpreter
that imports ``repro``, prints the CLI help or starts the serve app has
not loaded NumPy either.
"""

import os
import subprocess
import sys

import repro

_SRC = os.path.dirname(os.path.dirname(repro.__file__))

_ENTRY_POINTS = """
import repro
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit:
    pass
import repro.serve.app
"""

_HELP = """
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit:
    pass
"""

_SERVE = """
from repro.serve.app import ReproServer
ReproServer(port=0, ledger_dir="ledger").start().close()
"""


def _loaded(probe, prefix, cwd=None):
    """The modules under ``prefix`` a fresh interpreter has after ``probe``."""
    report = (
        "import sys\n"
        f"print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe + report],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        cwd=cwd,
        check=True,
    )
    return result.stdout.splitlines()[-1]


def test_entry_points_load_no_scipy():
    assert _loaded(_ENTRY_POINTS, "scipy") == "[]"


def test_import_repro_loads_no_numpy_and_no_subpackage():
    assert _loaded("import repro\n", "numpy") == "[]"
    assert _loaded("import repro\n", "repro.") == "['repro._lazy']"


def test_cli_help_loads_no_numpy():
    assert _loaded(_HELP, "numpy") == "[]"


def test_serve_start_up_loads_no_numpy(tmp_path):
    assert _loaded(_SERVE, "numpy", cwd=tmp_path) == "[]"
