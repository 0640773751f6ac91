"""Command-line front end.

Subcommands:
  tables    regenerate the (rho, omega1, omega2, omega3) table on a grid
  moments   print exact and asymptotic moments at one (rho, n)
  estimate  read a two-column CSV and print coefficients and estimates
  simulate  run a Monte Carlo campaign and write a comparison report
  are       print asymptotic relative efficiencies on a grid

Exit codes: 0 success, 2 numerical failure, 3 data precondition violated
(ties, constant column, too few rows, bad parameters, usage errors), 4
I/O or parse error, 5 resource limit (the simulate work budget, or memory
that could not be allocated).
"""

from __future__ import annotations

import argparse
import csv
import math
import re
import sys

import numpy as np

from .binormal import (cov_rs_rk_asymptotic, cov_rs_rk_exact, lemma2_moments,
                       omegas, var_rs_asymptotic, var_rs_exact)
from .contaminated import ContaminationParams
from .correlation import (PairedSample, inequality_check, kendall, pearson,
                          spearman)
from .errors import (ConvergenceError, CrossCheckError, DegenerateError,
                     DerivationError, DomainError, NegativeVarianceError,
                     RankMomentsError, ResourceError, SizeError, TieError)
from .estimators import EstimatorKind, are, estimates
from .formatting import format_fixed, label_places
from .simulate import (ExperimentConfig, compare_report, format_report_csv,
                       run_experiment)

EXIT_OK = 0
EXIT_NUMERICAL = 2
EXIT_DATA = 3
EXIT_IO = 4
EXIT_RESOURCE = 5

_GRID_RE = re.compile(r"^\s*([-+0-9.eE]+)\(([-+0-9.eE]+)\)([-+0-9.eE]+)\s*$")
# most points a grid may have; checked before the list is built, since a
# 10**9-point list alone takes about 30 GB
_MAX_GRID_POINTS = 10_001


def parse_grid(spec: str) -> list:
    """Parse "start(step)stop" into an inclusive, ordered list of floats."""
    m = _GRID_RE.match(spec)
    if m is None:
        try:
            return [float(spec)]
        except ValueError:
            raise DomainError(f"bad grid spec {spec!r}; "
                              f"expected start(step)stop") from None
    start, step, stop = (float(g) for g in m.groups())
    if start == stop:
        return [start]
    if step == 0 or (stop - start) * step < 0:
        raise DomainError(f"grid {spec!r} does not terminate")
    steps = (stop - start) / step
    # keeps count + 1 <= _MAX_GRID_POINTS below, and rejects an infinite span
    if not steps < _MAX_GRID_POINTS - 0.5:
        raise DomainError(f"grid {spec!r} has more than {_MAX_GRID_POINTS} "
                          f"points")
    count = int(round(steps))
    if abs(start + count * step - stop) > 1e-9 * max(1.0, abs(step)):
        count = math.floor(steps + 1e-9)
    grid = [start + k * step for k in range(count + 1)]
    grid[-1] = min(grid[-1], stop) if step > 0 else max(grid[-1], stop)
    # snap near-zero artifacts of repeated float addition
    return [0.0 if abs(v) < 1e-12 else round(v, 12) for v in grid]


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IoFailure(str(exc))


class _IoFailure(Exception):
    pass


def cmd_tables(args) -> int:
    if args.grid is None:
        raise DomainError("tables requires --grid")
    grid = parse_grid(args.grid)
    if any(not 0 <= r <= 1 for r in grid):
        raise DomainError("tables grid must lie within [0, 1]")
    p = args.precision
    places = label_places(grid, 2)
    out = ["rho,omega1,omega2,omega3"]
    for rho, om in zip(grid, omegas(grid)):
        out.append(",".join([
            format_fixed(rho, places),
            format_fixed(om.omega1, p),
            format_fixed(om.omega2, p),
            format_fixed(om.omega3, p),
        ]))
    _write_out("\n".join(out) + "\n", args.out)
    return EXIT_OK


def cmd_moments(args) -> int:
    rho, n, p = args.rho, args.n, args.precision
    if rho is None or n is None:
        raise DomainError("moments requires --rho and --n")
    if n < 4:
        raise DomainError("moments requires n >= 4")
    lm = lemma2_moments(rho, n)
    lines = [
        f"rho={format_fixed(rho, label_places([rho], 4))} n={n}",
        f"mean_rp={format_fixed(lm['mean_rp'], p)}",
        f"var_rp={format_fixed(lm['var_rp'], p)}",
        f"mean_rs={format_fixed(lm['mean_rs'], p)}",
        f"mean_rk={format_fixed(lm['mean_rk'], p)}",
        f"var_rk={format_fixed(lm['var_rk'], p)}",
        f"var_rs_exact={format_fixed(var_rs_exact(rho, n), p)}",
        f"var_rs_asymptotic={format_fixed(var_rs_asymptotic(rho, n), p)}",
        f"cov_rs_rk_exact={format_fixed(cov_rs_rk_exact(rho, n), p)}",
        f"cov_rs_rk_asymptotic="
        f"{format_fixed(cov_rs_rk_asymptotic(rho, n), p)}",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _read_pairs(path: str) -> PairedSample:
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise _IoFailure(str(exc))
    if not rows:
        raise _IoFailure(f"{path}: empty file")
    start = 0
    try:
        float(rows[0][0]), float(rows[0][1])
    except (ValueError, IndexError):
        start = 1  # header line
    xs, ys = [], []
    for idx, row in enumerate(rows[start:], start=start + 1):
        if len(row) < 2:
            raise _IoFailure(f"{path}: line {idx}: need two columns")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as exc:
            raise _IoFailure(f"{path}: line {idx}: {exc}")
    if len(xs) < 4:
        raise DomainError(f"{path}: need at least 4 rows, got {len(xs)}")
    return PairedSample(x=np.asarray(xs), y=np.asarray(ys))


def cmd_estimate(args) -> int:
    sample = _read_pairs(args.input)
    n = sample.n
    p = args.precision
    r_p = pearson(sample)
    r_s = spearman(sample)
    r_k = kendall(sample)
    daniel_ok, durbin_stuart_ok = inequality_check(r_s, r_k, n)
    rho_hat = estimates(r_p, r_s, r_k, n)
    lines = [
        f"n={n}",
        f"r_p={format_fixed(r_p, p)}",
        f"r_s={format_fixed(r_s, p)}",
        f"r_k={format_fixed(r_k, p)}",
        f"rho_hat_p={format_fixed(rho_hat['pearson'], p)}",
        f"rho_hat_s={format_fixed(rho_hat['spearman'], p)}",
        f"rho_hat_k={format_fixed(rho_hat['kendall'], p)}",
        f"rho_hat_m={format_fixed(rho_hat['mixed'], p)}",
        f"daniel_inequality={'ok' if daniel_ok else 'violated'}",
        f"durbin_stuart_inequality={'ok' if durbin_stuart_ok else 'violated'}",
    ]
    _write_out("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.grid is not None:
        rho_grid = tuple(parse_grid(args.grid))
    elif args.rho is not None:
        rho_grid = (args.rho,)
    else:
        raise DomainError("simulate requires --rho or --grid")
    if args.n is None:
        raise DomainError("simulate requires --n")
    contamination = None
    if args.model == "contaminated":
        contamination = ContaminationParams(
            rho=0.0, epsilon=args.epsilon,
            lambda_x=args.lambda_x, lambda_y=args.lambda_y,
            rho_prime=args.rho_prime)
    config = ExperimentConfig(model=args.model, rho_grid=rho_grid,
                              n_list=(args.n,), trials=args.trials,
                              seed=args.seed, contamination=contamination)
    report = run_experiment(config)
    summary = compare_report(report, args.tol_sigmas)
    _write_out(format_report_csv(summary.rows, args.precision), args.out)
    sys.stderr.write(f"PASS={summary.passed} FAIL={summary.failed} "
                     f"SKIP={summary.skipped}\n")
    if args.strict and summary.failed > 0:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_are(args) -> int:
    grid = parse_grid(args.grid) if args.grid is not None else \
        ([args.rho] if args.rho is not None else None)
    if grid is None:
        raise DomainError("are requires --rho or --grid")
    p = args.precision
    places = label_places(grid, 4)
    omegas(grid)  # the whole grid in lock-step passes, before are() reads it
    out = ["rho,are_spearman,are_kendall"]
    for rho in grid:
        out.append(",".join([
            format_fixed(rho, places),
            format_fixed(are(EstimatorKind.SPEARMAN, rho), p),
            format_fixed(are(EstimatorKind.KENDALL, rho), p),
        ]))
    _write_out("\n".join(out) + "\n", args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # a usage error is bad parameters; argparse's own 2 is a numerical failure
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_DATA, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rankmoments",
        description="Exact moment theory of rank correlation coefficients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, grid=False, rho=False, n=False, sim=False):
        sp.add_argument("--precision", type=int, default=10,
                        help="decimal places (1..15)")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if grid:
            sp.add_argument("--grid", default=None,
                            help='grid spec "start(step)stop"')
        if rho:
            sp.add_argument("--rho", type=float, default=None)
        if n:
            sp.add_argument("--n", type=int, default=None)
        if sim:
            sp.add_argument("--model", choices=("binormal", "contaminated"),
                            default="binormal")
            sp.add_argument("--trials", type=int, default=100000)
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--epsilon", type=float, default=0.0)
            sp.add_argument("--lambda-x", type=float, default=1.0,
                            dest="lambda_x")
            sp.add_argument("--lambda-y", type=float, default=1.0,
                            dest="lambda_y")
            sp.add_argument("--lambda", type=float, default=None,
                            dest="lambda_both",
                            help="sets both --lambda-x and --lambda-y")
            sp.add_argument("--rho-prime", type=float, default=0.0,
                            dest="rho_prime")
            sp.add_argument("--tol-sigmas", type=float, default=4.0,
                            dest="tol_sigmas")
            sp.add_argument("--strict", action="store_true")

    sp = sub.add_parser("tables", help="regenerate the omega table")
    common(sp, grid=True)
    sp.set_defaults(func=cmd_tables)

    sp = sub.add_parser("moments", help="exact moments at one (rho, n)")
    common(sp, rho=True, n=True)
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("estimate", help="estimate rho from a two-column CSV")
    sp.add_argument("input", help="CSV path with x,y columns")
    common(sp)
    sp.set_defaults(func=cmd_estimate)

    sp = sub.add_parser("simulate", help="Monte Carlo verification campaign")
    common(sp, grid=True, rho=True, n=True, sim=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("are", help="asymptotic relative efficiencies")
    common(sp, grid=True, rho=True)
    sp.set_defaults(func=cmd_are)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.precision <= 15:
        sys.stderr.write("precision must be in [1, 15]\n")
        return EXIT_DATA
    if getattr(args, "lambda_both", None) is not None:
        args.lambda_x = args.lambda_y = args.lambda_both
    try:
        return args.func(args)
    except TieError as exc:
        sys.stderr.write(f"tied data: {exc}\n")
        return EXIT_DATA
    except (SizeError, DomainError, DegenerateError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_DATA
    except (ConvergenceError, NegativeVarianceError, CrossCheckError,
            DerivationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except _IoFailure as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return EXIT_IO
    # a MemoryError from a simulate worker thread is re-raised here too
    except (ResourceError, MemoryError) as exc:
        sys.stderr.write(f"resource limit: {str(exc) or 'out of memory'}\n")
        return EXIT_RESOURCE
    except RankMomentsError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
