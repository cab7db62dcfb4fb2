"""The committed robustness table regenerates from the code.

CI regenerates the whole of ``ci/detectors_robustness.csv`` and
``cmp``s it; this tier-1 pin regenerates the two leading scenarios of
the same campaign (horizon 900, 5 replications, seed 2006, serial, the
six head-to-head policies) through the same CLI command and checks
that their 12 rows equal the committed ones byte for byte.

The slice must be a *prefix* of the zoo: campaign seeds depend on a
scenario's position in the list (``seed + 1000 * s_index + i``), so
only scenarios at the positions they hold in the full zoo reproduce
their committed rows.
"""

import pathlib

from repro.cli import main
from repro.faults.zoo import scenario_names

REPO = pathlib.Path(__file__).resolve().parent.parent.parent
TABLE = REPO / "ci" / "detectors_robustness.csv"
SCENARIOS = ("aging_onset", "workload_shift")
POLICIES = "SRAA,SARAA,CLTA,ADAPTIVE,ENTROPY,TREND"


def test_slice_is_a_zoo_prefix():
    assert tuple(scenario_names()[: len(SCENARIOS)]) == SCENARIOS


def test_leading_scenarios_regenerate_committed_rows(tmp_path, capsys):
    out = tmp_path / "slice.csv"
    assert (
        main(
            [
                "faults", "run", ",".join(SCENARIOS),
                "--horizon", "900",
                "--replications", "5",
                "--seed", "2006",
                "--backend", "serial",
                "--no-ledger",
                "--policies", POLICIES,
                "--csv", str(out),
            ]
        )
        == 0
    )
    regenerated = out.read_text(encoding="utf-8").splitlines()
    committed = TABLE.read_text(encoding="utf-8").splitlines()
    header = committed[0]
    expected = [
        line for line in committed[1:] if line.split(",")[0] in SCENARIOS
    ]
    assert len(expected) == 12
    assert regenerated == [header] + expected
