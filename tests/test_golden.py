"""Golden CLI outputs: every line must match the recorded stdout.

The files under ``golden/`` are the stdout of ``schurcompress <argv>`` for the
commands below.  The first nine were recorded before diagonal blocks were
stored as vectors and before qubit multiplicities moved to log space; the two
``sweep_qudit_*`` files (a rank-deficient d = 3 spectrum, and d = 4) were
recorded while qudit block diagonals still came from a tableau walk.  The
rest (every table from ``simulate`` and ``oracle-check``, the ``dims`` CSV and
JSON, the ``qdist`` tables, the remaining ``plan`` forms and the ``sweep``
JSON) were recorded after rotated qubit states became a frame label and
before the CLI read its flags and printed its output in one place.
Non-numeric text must match exactly.  Numbers must agree within 1e-9
relative, which leaves room for the last of the ten printed digits, or within
1e-13 absolute: the recorded sweeps printed ``tail_mass`` and ``lower_bound``
from 1 - (kept mass), so the ~1e-14 roundoff of weights that sum to 1 shows
up there as an absolute error.
"""

import math
import re
from pathlib import Path

import pytest

from schurcompress.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")

CASES = {
    "dims_n8_d3.txt": ["dims", "--n", "8", "--d", "3"],
    "qdist_qubit_n40.csv": ["qdist", "--n", "40", "--spectrum", "0.75,0.25", "--format", "csv"],
    "qdist_qudit_n20.json": ["qdist", "--n", "20", "--spectrum", "0.5,0.3,0.2",
                             "--format", "json"],
    "plan_qubit_n64.txt": ["plan", "--n", "64", "--spectrum", "0.75,0.25", "--epsilon", "0.01"],
    "plan_qudit_n30.json": ["plan", "--n", "30", "--spectrum", "0.5,0.3,0.2", "--epsilon", "0.1",
                            "--format", "json"],
    "simulate_diag_n40.json": ["simulate", "--n", "40", "--spectrum", "0.75,0.25",
                               "--epsilon", "0.01", "--format", "json"],
    "simulate_rot_n40.json": ["simulate", "--n", "40", "--spectrum", "0.75,0.25",
                              "--epsilon", "0.01", "--theta", "1.0", "--phi", "0.5",
                              "--format", "json"],
    "sweep_epsilon.csv": ["sweep", "--n-range", "10:60:10", "--spectrum", "0.75,0.25",
                          "--epsilon-list", "0.1,0.01"],
    "sweep_budget.csv": ["sweep", "--n-list", "64,128,512", "--spectrum", "0.75,0.25",
                         "--budget-exponent", "1.4"],
    "sweep_qudit_rank2.csv": ["sweep", "--n-list", "6,12,18", "--spectrum", "0.6,0.4,0",
                              "--budget-exponent", "1.4"],
    "sweep_qudit_d4.csv": ["sweep", "--n-list", "6,12", "--spectrum", "0.4,0.3,0.2,0.1",
                           "--budget-exponent", "1.4"],
    "dims_n8_d3.csv": ["dims", "--n", "8", "--d", "3", "--format", "csv"],
    "dims_n6_d2.json": ["dims", "--n", "6", "--d", "2", "--format", "json"],
    "dims_n8_d3_r2.txt": ["dims", "--n", "8", "--d", "3", "--r", "2"],
    "qdist_qubit_n40.txt": ["qdist", "--n", "40", "--spectrum", "0.75,0.25"],
    "qdist_qudit_n20.txt": ["qdist", "--n", "20", "--spectrum", "0.5,0.3,0.2"],
    "plan_qudit_n30.txt": ["plan", "--n", "30", "--spectrum", "0.5,0.3,0.2", "--epsilon", "0.1"],
    "plan_qubit_zero_n64.txt": ["plan", "--n", "64", "--spectrum", "0.75,0.25", "--zero-error"],
    "plan_qubit_n64.json": ["plan", "--n", "64", "--spectrum", "0.75,0.25", "--epsilon", "0.01",
                            "--format", "json"],
    "simulate_diag_n120.txt": ["simulate", "--n", "120", "--spectrum", "0.75,0.25",
                               "--epsilon", "0.01"],
    "simulate_rot_n120.txt": ["simulate", "--n", "120", "--spectrum", "0.75,0.25",
                              "--epsilon", "0.01", "--theta", "1.0", "--phi", "0.5"],
    "simulate_qudit_n20.txt": ["simulate", "--n", "20", "--spectrum", "0.5,0.3,0.2",
                               "--epsilon", "0.1"],
    "simulate_zero_n40.txt": ["simulate", "--n", "40", "--spectrum", "0.75,0.25",
                              "--zero-error"],
    "sweep_budget.json": ["sweep", "--n-list", "64,128,512", "--spectrum", "0.75,0.25",
                          "--budget-exponent", "1.4", "--format", "json"],
    "sweep_epsilon.json": ["sweep", "--n-range", "10:60:10", "--spectrum", "0.75,0.25",
                           "--epsilon-list", "0.1,0.01", "--format", "json"],
    "oracle_qubit_n4.txt": ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25"],
    "oracle_rot_n5.txt": ["oracle-check", "--n", "5", "--spectrum", "0.9,0.1",
                          "--theta", "0.7", "--phi", "2.1", "--seed", "7"],
    "oracle_qubit_n4.json": ["oracle-check", "--n", "4", "--spectrum", "0.75,0.25",
                             "--format", "json"],
    "oracle_qudit_n4.json": ["oracle-check", "--n", "4", "--spectrum", "0.5,0.3,0.2",
                             "--format", "json"],
}


def _same_line(got: str, want: str) -> bool:
    if NUMBER.sub("#", got) != NUMBER.sub("#", want):
        return False
    return all(a == b or math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-13)
               for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys):
    assert main(CASES[name]) == 0
    got = capsys.readouterr().out.splitlines()
    want = (GOLDEN / name).read_text().splitlines()
    assert len(got) == len(want)
    for lineno, (a, b) in enumerate(zip(got, want), 1):
        assert _same_line(a, b), f"{name}:{lineno}\n got: {a}\nwant: {b}"
