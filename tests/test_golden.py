"""CLI output bytes, compared against committed golden files.

Each command runs in a fresh `python -m rankmoments.cli` process, so the
omega memo cache starts cold every time, as it does for a user. The golden files were written by the same commands
and must only change together with a named, deliberate output change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "golden"
SRC = HERE.parent / "src"

CASES = {
    "tables.csv": ["tables", "--grid", "0(0.1)1"],
    "are.csv": ["are", "--grid", "0(0.1)1"],
    "moments.txt": ["moments", "--rho", "0.5", "--n", "20"],
    "simulate_binormal.csv": ["simulate", "--grid", "0.3(0.3)0.9",
                              "--n", "20", "--trials", "5000", "--seed", "7"],
    "simulate_contaminated.csv": ["simulate", "--model", "contaminated",
                                  "--epsilon", "0.05", "--lambda", "100",
                                  "--rho", "0.6", "--n", "65",
                                  "--trials", "2000", "--seed", "3"],
    "estimate.txt": ["estimate", "--precision", "15",
                     str(GOLDEN / "estimate_input.csv")],
}


def run_cli(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-m", "rankmoments.cli", *argv],
                          capture_output=True, env=env, check=False)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fresh_process_matches_golden(name):
    proc = run_cli(CASES[name])
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()
