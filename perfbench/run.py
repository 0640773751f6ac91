#!/usr/bin/env python3
"""The rankmoments benchmark.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh interpreter (perfbench/op.py) that imports the
package from ./src and calls rankmoments.cli.main, one client at a time
(closed loop). Operations repeat on the inputs made from --seed until
--seconds have passed; every output is checked.

--trace 0 prints the end-to-end metrics, with the time metrics scaled to
a reference host speed (see calibrated()); --trace 1 runs the traced pass
and prints the per-layer metrics. The last line of stdout is the result
object; the line before it holds the environment and the details (sample
counts, tail percentile, error rate, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from pathlib import Path

import numpy as np

from spans import COUNT_METRICS, aggregate

HERE = Path(__file__).resolve().parent
MIN_OPS = 3            # per kind of operation, even when --seconds is tiny
OP_TIMEOUT_S = 60
SETUP_REPEATS = 7
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it
CAL_REF_S = 0.1        # calibration time at the reference host speed

SIM_EXACT_ROWS = {
    "binormal": {("r_s", "mean"), ("r_s", "var"), ("r_k", "mean"),
                 ("r_k", "var"), ("joint", "cov_rs_rk")},
    "contaminated": {("r_s", "mean"), ("r_k", "mean")},
}
SWEEP_POINTS = ((10, 8192), (40, 4096), (64, 4096), (65, 1024), (1000, 48))
BLOCK_NS = (64, 1000)


class Workload:
    """Inputs made from the seed, the argv of one operation, its check."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed % 2**64     # numpy and the CLI take seeds >= 0
        self.work = work
        salt = zlib.crc32(self.name.encode())
        self.rng = np.random.default_rng([self.seed, salt])

    def calls(self, out: Path) -> list:
        raise NotImplementedError

    def trials(self) -> int:
        """Work items of one operation: Monte Carlo trials on sim_*."""
        return 1

    def calibrate(self) -> float:
        """Calibration that resembles this workload's hot path."""
        return calibrate()

    def check(self, out: Path) -> str | None:
        raise NotImplementedError


class TheoryTables(Workload):
    """The reference tables were written by scripts/regenerate_tables.py
    at the commit that introduced this benchmark."""

    name = "theory_tables"
    REF = HERE / "reference"
    STEP = 1            # every STEP-th row of the 0(0.01)1 reference grid

    def calls(self, out):
        grid = f"0({self.STEP / 100:g})1"
        return [["tables", "--grid", grid, "--out", str(out / "omega.csv")],
                ["are", "--grid", grid, "--out", str(out / "are.csv")]]

    def check(self, out):
        for got, ref in (("omega.csv", "omega_table.csv"),
                         ("are.csv", "are_table.csv")):
            header, *rows = (self.REF / ref).read_text().splitlines()
            want = "\n".join([header] + rows[::self.STEP]) + "\n"
            if (out / got).read_bytes() != want.encode():
                return f"{got} differs from reference/{ref}"
        last = (out / "omega.csv").read_text().splitlines()[-1]
        if last != "1.00,1.0000000000,5.3333333333,0.5000000000":
            return f"rho=1 row reads {last!r}, not 1, 16/3, 0.5"
        return None


class Simulate(Workload):
    """A simulate campaign; the seed picks the simulation seed."""

    SWEEP = SWEEP_POINTS
    BLOCK = BLOCK_NS

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.sim_seed = int(self.rng.integers(2**63))

    def calls(self, out):
        s = self.sim
        argv = ["simulate", "--model", s["model"], "--n", str(s["n"]),
                "--trials", str(s["trials"]), "--seed", str(self.sim_seed),
                "--out", str(out / "report.csv")]
        if s["model"] == "contaminated":
            c = s["contamination"]
            argv += ["--epsilon", str(c["epsilon"]),
                     "--lambda", str(c["lambda_x"]),
                     "--rho-prime", str(c["rho_prime"]),
                     "--rho", str(s["rho"])]
        else:
            argv += ["--grid", s["grid"]]
        return [argv]

    def trials(self):
        return self.sim["trials"] * self.sim["cells"]

    def check(self, out):
        with open(out / "report.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        model = self.sim["model"]
        exact = SIM_EXACT_ROWS[model]
        cells = {(r["rho"], r["n"]) for r in rows}
        if len(cells) != self.sim["cells"]:
            return f"report has {len(cells)} cells, want {self.sim['cells']}"
        seen = 0
        for r in rows:
            key = (r["kind"], r["metric"])
            if key in exact:
                seen += 1
                if r["verdict"] != "PASS":
                    return f"exact-theory row {key} at rho={r['rho']} " \
                           f"reads {r['verdict']}"
            if key == ("r_s", "mean_rival") and r["verdict"] != "FAIL":
                return f"rival formula row at rho={r['rho']} does not FAIL"
        if seen != len(exact) * len(cells):
            return f"report has {seen} exact-theory rows, " \
                   f"want {len(exact) * len(cells)}"
        return None


class SimBinormal(Simulate):
    name = "sim_binormal_n20"
    sim = {"model": "binormal", "grid": "0.3(0.3)0.9", "rho": 0.3, "n": 20,
           "trials": 20000, "cells": 3}


class SimContaminated(Simulate):
    name = "sim_contaminated_n1000"
    sim = {"model": "contaminated", "rho": 0.6, "n": 1000, "trials": 100,
           "cells": 1, "contamination": {"epsilon": 0.05, "lambda_x": 100.0,
                                         "lambda_y": 100.0, "rho_prime": 0.0}}


class EstimateCsv(Workload):
    name = "estimate_csv"
    N = 5000
    TOL = 1e-12

    def __init__(self, seed, work):
        super().__init__(seed, work)
        from scipy import stats

        rho = self.rng.uniform(0.2, 0.8)
        while True:
            x = self.rng.standard_normal(self.N)
            y = rho * x + np.sqrt(1 - rho * rho) * self.rng.standard_normal(
                self.N)
            if len(np.unique(x)) == self.N and len(np.unique(y)) == self.N:
                break
        self.data = work / "pairs.csv"
        with open(self.data, "w") as fh:
            fh.write("x,y\n")
            fh.writelines(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y))
        self.expected = {
            "r_p": stats.pearsonr(x, y)[0],
            "r_s": stats.spearmanr(x, y)[0],
            "r_k": stats.kendalltau(x, y)[0],
        }

    def calibrate(self):
        return calibrate_memory()

    def calls(self, out):
        return [["estimate", str(self.data), "--precision", "15",
                 "--out", str(out / "estimate.txt")]]

    def check(self, out):
        got = dict(line.split("=", 1) for line in
                   (out / "estimate.txt").read_text().splitlines())
        for key, want in self.expected.items():
            if abs(float(got[key]) - want) > self.TOL:
                return f"{key}={got[key]} but scipy gives {want!r}"
        return None


WORKLOADS = {w.name: w for w in (TheoryTables, SimBinormal, SimContaminated,
                                 EstimateCsv)}


class Runner:
    """Starts operations in fresh interpreters and checks their outputs."""

    def __init__(self, root: Path, workload: Workload):
        self.root = root
        self.src = root / "src"
        self.workload = workload
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.src), os.environ.get("PYTHONPATH")) if p)
        self.env.pop("RANKMOMENTS_THREADS", None)
        self.count = 0
        self.failed = 0
        self.failures = []
        self.first_output = None

    def _child(self, argv, threads=None):
        env = self.env if threads is None else \
            {**self.env, "RANKMOMENTS_THREADS": str(threads)}
        return subprocess.run(argv, env=env, cwd=self.root,
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)

    def import_wall(self) -> float:
        start = time.perf_counter()
        proc = self._child([sys.executable, "-c", "import rankmoments"])
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise SystemExit(f"cannot import rankmoments from {self.src}:\n"
                             f"{proc.stderr}")
        return wall

    def op(self, mode="cli", trace=False, threads=None, **extra) -> dict:
        """Run one operation; return its result, with "ok" set."""
        self.count += 1
        out = self.workload.work / f"op{self.count}"
        out.mkdir()
        spec = {"mode": mode, "trace": trace, "src": str(self.src),
                "result": str(out / "result.json"), **extra}
        if mode == "cli":
            spec["calls"] = self.workload.calls(out)
        try:
            proc = self._child([sys.executable, str(HERE / "op.py"),
                                json.dumps(spec)], threads)
            returncode, stderr = proc.returncode, proc.stderr.strip()
        except subprocess.TimeoutExpired:
            returncode, stderr = None, f"timed out after {OP_TIMEOUT_S} s"
        try:
            result = json.loads((out / "result.json").read_text())
        except (OSError, ValueError):
            result = {"rc": None}
        error = None
        if returncode != 0 or result["rc"] != 0:
            error = f"exit {returncode}, rc {result['rc']}: {stderr[-500:]}"
        elif mode == "cli":
            error = self.workload.check(out)
            if error is None:
                error = self._same_output(out)
        result["ok"] = error is None
        if error is not None:
            self.failed += 1
            self.failures.append(f"{mode} op {self.count}: {error}")
        shutil.rmtree(out)
        return result

    def _same_output(self, out: Path) -> str | None:
        """Every operation of a run has the same inputs: outputs must match."""
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                 if p.name != "result.json"}
        if self.first_output is None:
            self.first_output = files
        elif files != self.first_output:
            return "output differs from the run's first operation"
        return None


def calibrate() -> float:
    """Wall time of fixed work that does not use rankmoments.

    Its three parts, about a third of the time each, resemble the hot paths
    of the package: an interpreter loop over numpy scalars (the inversion
    merge), small numpy calls (the quadrature panels) and a sign matrix
    that fits in the cache (the pairwise signs of a simulation block).
    """
    start = time.perf_counter()
    acc = 0
    a = np.arange(100_000)
    for i in range(len(a) - 1):
        if a[i] <= a[i + 1]:
            acc += 1
    x = np.linspace(-0.9, 0.9, 15)
    for _ in range(7000):
        acc += float(np.dot(x, np.arcsin(x * 0.5)))
    v = np.linspace(-1.0, 1.0, 1200)
    for _ in range(2):
        acc += int((np.sign(v[:, None] - v[None, :]) > 0).sum())
    return time.perf_counter() - start


def calibrate_memory() -> float:
    """Wall time of fixed work like the O(n^2) single-sample coefficients.

    It fills three fresh 3000 x 3000 float64 arrays, 72 MB each: pairwise
    differences, their signs and the signs' product. Like `estimate` on
    5000 pairs, it streams through more fresh memory than the cache holds,
    so it slows with the host's memory system, which `calibrate()` barely
    touches.
    """
    start = time.perf_counter()
    v = np.linspace(-1.0, 1.0, 3000)
    s = np.sign(v[:, None] - v[None, :])
    int((s * s).sum())
    return time.perf_counter() - start


def calibrated(sample, cal=calibrate):
    """Time `sample()` and scale it to the reference host speed.

    The host's speed drifts by up to 2x over minutes, so the sample is
    divided by the mean of calibrations `cal()` run just before and just
    after it, while no operation runs. Returns (scaled, measured, result).
    """
    before = cal()
    measured, result = sample()
    after = cal()
    if measured is None:
        return None, None, result
    return measured * 2 * CAL_REF_S / (before + after), measured, result


def tail(values):
    """Highest order statistic with TAIL_BEYOND samples above it."""
    ordered = sorted(values)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def until(seconds, kinds, run):
    """Cycle through `kinds` until `seconds` pass and each ran MIN_OPS.

    Each cycle rotates the order by one, so every kind takes every place
    in a cycle equally often. Operation times on the host can alternate
    between fast and slow, and an operation can slow the next one; in a
    fixed order those patterns would favour one kind.
    """
    start = time.perf_counter()
    order = list(kinds)
    done = {k: [] for k in kinds}
    while (time.perf_counter() - start < seconds
           or min(len(v) for v in done.values()) < MIN_OPS):
        for k in order:
            done[k].append(run(k))
        order = order[1:] + order[:1]
    return done


def time_metrics(setup, walls, trials) -> dict:
    wall = statistics.median(walls)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "wall_tail_s": (tail(walls)[0], "s"),
        "trials_per_s": (trials / wall, "1/s"),
    }


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, dict]:
    setup = [calibrated(lambda: (runner.import_wall(), None))
             for _ in range(SETUP_REPEATS)]

    def op():
        result = runner.op()
        return result.get("wall_s"), result

    ops = until(seconds, ["default"],
                lambda k: calibrated(op, runner.workload.calibrate))["default"]
    timed = [(scaled, measured) for scaled, measured, _ in ops
             if measured is not None]
    if not timed:
        raise SystemExit("no operation completed: "
                         + "; ".join(runner.failures[:3]))
    trials = runner.workload.trials()
    metrics = time_metrics([s for s, _, _ in setup], [s for s, _ in timed],
                           trials)
    results = [r for _, _, r in ops]
    metrics["peak_rss_mb"] = (statistics.median(
        r["peak_rss_mb"] for r in results if "peak_rss_mb" in r), "MB")
    walls = [m for _, m in timed]
    failed = sum(not r["ok"] for r in results)
    detail = {
        "operations": len(ops),
        "wall_samples": len(walls),
        "wall_tail_percentile": tail(walls)[1],
        "setup_samples": len(setup),
        "measured": {name: value for name, (value, _) in time_metrics(
            [m for _, m, _ in setup], walls, trials).items()},
        "op_wall_s": [round(v, 5) for v in walls],
        "op_scaled_s": [round(s, 5) for s, _ in timed],
        "op_cpu_s": [round(r["cpu_s"], 5) for r in results if "cpu_s" in r],
        "setup_wall_s": [round(m, 5) for _, m, _ in setup],
        "error_rate": {"value": failed / len(ops), "unit": "1"},
        "threads_limit": results[0].get("threads_limit"),
        "package_version": results[0].get("version"),
    }
    return metrics, detail


PER_LAYER_UNITS = {
    "quadrature.calls": "count", "quadrature.panels": "count",
    "quadrature.self_s": "s", "orthant.w_integral.calls": "count",
    "orthant.w_integral_s": "s", "orthant.integrand_s": "s",
    "binormal.first_derive_s": "s", "binormal.derive_s": "s",
    "binormal.omega4_s": "s", "binormal.omegas_cold_s": "s",
    "binormal.omegas_warm_s": "s", "binormal.omega_cache_hits": "count",
    "binormal.omega_cache_misses": "count", "binormal.exact_moments_s": "s",
    "estimators.are_s": "s", "estimators.theory_s": "s",
    "contaminated.sample_s": "s", "contaminated.theory_s": "s",
    "simulate.sample_s": "s", "correlation.count_inversions.calls": "count",
    "correlation.count_inversions_s": "s", "simulate.blocks": "count",
    "correlation.pearson_s": "s", "correlation.spearman_s": "s",
    "correlation.kendall_s": "s", "cli.self_s": "s",
    **{f"simulate.kernel_us_per_trial.n{n}": "us" for n, _ in SWEEP_POINTS},
    **{f"simulate.block_peak_mb.n{n}": "MB" for n in BLOCK_NS},
    "simulate.thread_speedup": "ratio", "trace.overhead_s": "s",
}


def traced(runner: Runner, seconds: int) -> tuple[dict, dict]:
    start = time.perf_counter()
    runner.import_wall()
    w = runner.workload
    values = {name: 0 if unit == "count" else 0.0
              for name, unit in PER_LAYER_UNITS.items()}
    kinds = ["traced", "untraced"]
    threads = None
    extras = []
    if isinstance(w, Simulate):
        # 1 thread keeps every span on one stack, so self times add up
        threads = 1
        kinds.append("default")
        probe = {"model": w.sim["model"], "rho": w.sim["rho"],
                 "seed": w.seed, "contamination": w.sim.get("contamination")}
        extras.append(runner.op("sweep", trace=True, threads=1,
                                points=w.SWEEP, **probe))
        extras.append(runner.op("block", threads=1, ns=w.BLOCK, **probe))
        for n, us in extras[0].get("kernel_us_per_trial", {}).items():
            values[f"simulate.kernel_us_per_trial.n{n}"] = us
        for n, mb in extras[1].get("block_peak_mb", {}).items():
            values[f"simulate.block_peak_mb.n{n}"] = mb

    def run(kind):
        if kind == "default":
            return runner.op()
        return runner.op(trace=kind == "traced", threads=threads)

    ops = until(seconds - (time.perf_counter() - start), kinds, run)
    per_op = [aggregate(r["spans"]) for r in ops["traced"] if r.get("spans")]
    if not per_op:
        raise SystemExit("no traced operation completed: "
                         + "; ".join(runner.failures[:3]))
    for name in per_op[0]:
        values[name] = statistics.median(m[name] for m in per_op)
    for name in COUNT_METRICS:
        values[name] = per_op[0][name]
        if len({m[name] for m in per_op}) != 1:
            runner.failures.append(f"{name} differs between traced "
                                   f"operations: {[m[name] for m in per_op]}")
    wall = {k: statistics.median(r["wall_s"] for r in v if "wall_s" in r)
            for k, v in ops.items()}
    values["trace.overhead_s"] = wall["traced"] - wall["untraced"]
    if "default" in wall:
        values["simulate.thread_speedup"] = wall["untraced"] / wall["default"]
    all_ops = [r for v in ops.values() for r in v] + extras
    metrics = {name: (values[name], unit)
               for name, unit in PER_LAYER_UNITS.items()}
    detail = {
        "operations": len(all_ops),
        "traced_samples": len(per_op),
        "wall_s": wall,
        "untraced_targets": ops["traced"][0].get("untraced"),
        "error_rate": {"value": sum(not r["ok"] for r in all_ops)
                       / len(all_ops), "unit": "1"},
        "threads_limit": ops[kinds[-1]][0].get("threads_limit"),
    }
    return metrics, detail


def environment(root: Path) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == root:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def checkout_root() -> Path | None:
    """The working directory, if it holds the package sources."""
    root = Path.cwd().resolve()
    if not (root / "src" / "rankmoments" / "__init__.py").is_file():
        sys.stderr.write(f"no rankmoments sources under {root / 'src'}; "
                         f"run from the root of a source checkout\n")
        return None
    return root


@contextlib.contextmanager
def scratch_dir(root: Path, tag: str):
    """A fresh directory under .perfbench_work, removed afterwards."""
    work = root / ".perfbench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = checkout_root()
    if root is None:
        return 2
    with scratch_dir(root, args.workload) as work:
        runner = Runner(root, WORKLOADS[args.workload](args.seed, work))
        measure = traced if args.trace else end_to_end
        metrics, detail = measure(runner, args.seconds)
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failures=runner.failures[:10], environment=environment(root))
    for name, (value, unit) in metrics.items():
        sys.stderr.write(
            f"{args.workload:24s} {name:38s} {value:14.6g} {unit}\n")
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.count,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
