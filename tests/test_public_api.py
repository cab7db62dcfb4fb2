"""The public API of ``repro`` and every subpackage, pinned by name.

``public_api.json`` records ``sorted(pkg.__all__)`` for each package.
Every recorded name must resolve by ``getattr``, import with ``from
<package> import <name>``, be listed by ``dir(package)`` and be the
exported object rather than a submodule of the same name.  The checks
run here, after the rest of the suite has imported whatever it
imports, and once more in a fresh interpreter, where every name is
looked up cold: ``python tests/test_public_api.py`` prints each
failure and exits 1 if there is any.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

RECORD = Path(__file__).resolve().with_name("public_api.json")
PUBLIC_API = json.loads(RECORD.read_text(encoding="utf-8"))


def export_problems(package_name):
    """Every way the recorded exports of ``package_name`` fail."""
    package = importlib.import_module(package_name)
    names = PUBLIC_API[package_name]
    problems = []
    if sorted(package.__all__) != names:
        problems.append(f"{package_name}.__all__ differs from the record")
    listed = set(dir(package))
    for name in names:
        where = f"{package_name}.{name}"
        try:
            value = getattr(package, name)
        except AttributeError:
            problems.append(f"{where} does not resolve")
            continue
        namespace = {}
        exec(f"from {package_name} import {name}", namespace)
        if namespace[name] is not value:
            problems.append(f"{where} imports as a different object")
        if isinstance(value, types.ModuleType):
            problems.append(f"{where} is a module, not the export")
        if name not in listed:
            problems.append(f"{where} is missing from dir()")
    return problems


def test_every_package_is_recorded():
    import pkgutil

    import repro

    packages = {"repro"} | {
        name
        for _, name, is_package in pkgutil.walk_packages(
            repro.__path__, "repro."
        )
        if is_package
    }
    assert packages == set(PUBLIC_API)


@pytest.mark.parametrize("package_name", sorted(PUBLIC_API))
def test_exports_resolve(package_name):
    assert export_problems(package_name) == []


def test_exports_resolve_in_a_fresh_interpreter():
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    result = subprocess.run(
        [sys.executable, __file__],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stdout + result.stderr


if __name__ == "__main__":
    failures = [
        problem
        for package_name in sorted(PUBLIC_API)
        for problem in export_problems(package_name)
    ]
    print("\n".join(failures))
    sys.exit(1 if failures else 0)
