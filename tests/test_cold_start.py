"""Cold start: the entry points load no ``scipy`` module.

Every ``repro`` command, ``repro serve`` and every benchmark process pays
its imports before doing any work, and ``scipy.stats`` alone used to be
most of that.  SciPy is imported inside the functions that need it, so
a fresh interpreter that imports the package, prints the CLI help and
imports the serve app must not have loaded it.
"""

import os
import subprocess
import sys

import repro

_PROBE = """
import sys
import repro
import repro.cli
try:
    repro.cli.main(["--help"])
except SystemExit:
    pass
import repro.serve.app
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_entry_points_load_no_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "[]"
