#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, at a tiny size, traced twice.

Usage (from the root of a source checkout):

    python3 perfbench/selftest.py

Each tiny workload goes through the traced pass two times. The test fails
if an output check fails or if a count metric differs between the two
runs. Exit code 0 means every workload passed.
"""

from __future__ import annotations

import sys

import run
from spans import COUNT_METRICS

TINY_SWEEP = ((10, 512), (65, 32))


class TinyTables(run.TheoryTables):
    STEP = 25


class TinyBinormal(run.SimBinormal):
    sim = {**run.SimBinormal.sim, "trials": 2000}
    SWEEP = TINY_SWEEP
    BLOCK = ()


class TinyContaminated(run.SimContaminated):
    sim = {**run.SimContaminated.sim, "n": 200}
    SWEEP = TINY_SWEEP
    BLOCK = ()


class TinyEstimate(run.EstimateCsv):
    N = 300


def main() -> int:
    root = run.checkout_root()
    if root is None:
        return 2
    ok = True
    for cls in (TinyTables, TinyBinormal, TinyContaminated, TinyEstimate):
        counts = []
        for _ in range(2):
            with run.scratch_dir(root, "selftest") as work:
                runner = run.Runner(root, cls(1, work))
                metrics, _ = run.traced(runner, 0)
            if runner.failures:
                ok = False
                print(f"FAIL {cls.name}: {runner.failures[:3]}")
            counts.append({name: metrics[name][0] for name in COUNT_METRICS})
        if counts[0] != counts[1]:
            ok = False
            print(f"FAIL {cls.name}: counts differ: {counts}")
        else:
            print(f"PASS {cls.name}: {counts[0]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
