"""The shipped examples stay runnable.

Every example must at least compile; the fast ones are executed
end-to-end (the slower, simulation-heavy ones are exercised implicitly
by the experiment tests, which cover the same code paths at reduced
scale).  The two slow-drift/offline examples are run end to end and
their printed rows pinned: they are the only callers of the
eroding-capacity fault and of offline replay outside the tests.
"""

import pathlib
import py_compile
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def example_paths():
    return sorted(EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_examples_exist(self):
        names = {path.name for path in example_paths()}
        assert "quickstart.py" in names
        assert len(names) >= 3  # the deliverable floor

    @pytest.mark.parametrize(
        "path", example_paths(), ids=lambda p: p.name
    )
    def test_compiles(self, path):
        py_compile.compile(str(path), doraise=True)

    @pytest.mark.parametrize(
        "path", example_paths(), ids=lambda p: p.name
    )
    def test_has_main_guard(self, path):
        source = path.read_text()
        assert 'if __name__ == "__main__":' in source
        assert "def main()" in source

    def test_quickstart_runs(self, capsys):
        runpy.run_path(
            str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__"
        )
        out = capsys.readouterr().out
        assert "rejuvenation triggered" in out

    def test_admission_control_runs(self, capsys):
        runpy.run_path(
            str(EXAMPLES_DIR / "admission_control.py"), run_name="__main__"
        )
        out = capsys.readouterr().out
        assert "P(block)" in out

    def test_telecom_degradation_runs(self, capsys):
        rows = _run_rows("telecom_degradation.py", capsys)
        # The rows the eroding M/M/c model printed before it became a
        # CapacityErosion fault on the Section-3 node.
        assert "no rejuvenation 1666.58 0.0000 0" in rows
        assert "SRAA (2,3,3) 2.60 0.0047 12" in rows
        assert "trend (n=10, w=10) 2.28 0.0146 31" in rows
        assert "CUSUM (k=0.5, h=5) 2.08 0.0393 81" in rows

    def test_offline_policy_selection_runs(self, capsys):
        rows = _run_rows("offline_policy_selection.py", capsys)
        assert "SRAA(2,5,3) 0 - 51 obs" in rows
        assert "CLTA(30) 49 619 9 obs" in rows
        assert "threshold > 20s 547 55 1 obs" in rows


def _run_rows(name, capsys):
    """Run one example; its stdout lines with whitespace collapsed."""
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    out = capsys.readouterr().out
    return [" ".join(line.split()) for line in out.splitlines()]
