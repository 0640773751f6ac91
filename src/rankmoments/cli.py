"""Command-line front end.

Subcommands:
  tables    regenerate the (rho, omega1, omega2, omega3) table on a grid
  moments   print exact and asymptotic moments at one (rho, n)
  estimate  read a two-column CSV and print coefficients and estimates
  simulate  run a Monte Carlo campaign and write a comparison report
  are       print asymptotic relative efficiencies on a grid

Exit codes: 0 success, 2 numerical failure, 3 data precondition violated
(ties, constant column, too few rows, bad parameters, usage errors), 4
I/O or parse error, 5 resource limit (the simulate work budget or its bound
on n, or memory that could not be allocated).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import re
import sys
import warnings

import numpy as np

from .binormal import (cov_rs_rk_asymptotic, cov_rs_rk_exact, lemma2_moments,
                       omegas, var_rs_asymptotic, var_rs_exact)
from .contaminated import ContaminationParams
from .correlation import (PairedSample, inequality_check, kendall, pearson,
                          spearman)
from .errors import (ConvergenceError, CrossCheckError, DegenerateError,
                     DomainError, NegativeVarianceError, RankMomentsError,
                     ResourceError, SizeError, TieError)
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
# a long flag with no "=value", a space, then a value that no flag of this
# parser starts with: a minus, then a digit or a point
_NEGATIVE = re.compile(r"--[^= ]+ -[0-9.]")
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


# np.loadtxt parses a cell as float() does, but it also strips \x1c-\x1f
# as whitespace, which float() refuses, and it knows no csv quoting (a
# quoted cell may hold a comma or a line break). A text holding any of
# these goes to the row loop.
_NOT_FOR_LOADTXT = ('"', "\x1c", "\x1d", "\x1e", "\x1f")


def _nonblank_rows(reader, path: str, offset: int = 0):
    """(physical line, cells) of each csv row with a non-blank cell, when
    offset lines of the file come before the reader's first."""
    try:
        for cells in reader:
            if any(c.strip() for c in cells):
                yield offset + reader.line_num, cells
    except csv.Error as exc:  # a cell longer than csv.field_size_limit()
        raise _IoFailure(f"{path}: line {offset + reader.line_num}: "
                         f"{exc}") from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _row_loop(rows, path: str) -> list:
    """The (x, y) of each (line, cells) row; a bad row names its line."""
    pairs = []
    for line, cells in rows:
        if len(cells) < 2:
            raise _IoFailure(f"{path}: line {line}: need two columns")
        try:
            pairs.append((float(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise _IoFailure(f"{path}: line {line}: {exc}") from None
    return pairs


def _read_pairs(path: str) -> PairedSample:
    """The sample in the first two columns of a CSV file.

    A byte-order mark at the start of the text is dropped. Rows whose
    cells are all blank are skipped, and columns past the
    second are ignored. The first other row is a header when neither of
    its first two cells is a number. The rows after it are parsed by one
    np.loadtxt call; a text that loadtxt refuses, or may read otherwise
    than float(), goes through the row loop, which names the physical line
    of the first bad row.
    """
    try:
        with open(path, newline="") as fh:
            if fh.read(1) != "\ufeff":  # a UTF-8 byte-order mark
                fh.seek(0)
            first = next(_nonblank_rows(csv.reader(fh), path), None)
            if first is None:
                raise _IoFailure(f"{path}: empty file")
            line, cells = first
            head = []
            if any(_is_number(c) for c in cells[:2]):  # not a header
                head = _row_loop([first], path)
            rest = fh.read()
    except OSError as exc:
        raise _IoFailure(str(exc))
    except UnicodeDecodeError as exc:
        raise _IoFailure(f"{path}: {exc}")
    buf = io.StringIO(rest, newline="")
    body = None
    if not any(c in rest for c in _NOT_FOR_LOADTXT):
        try:
            with warnings.catch_warnings():
                # no rows after the first: the count check reports it
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                body = np.loadtxt(buf, delimiter=",", usecols=(0, 1),
                                  comments=None, ndmin=2)
        except ValueError:
            buf.seek(0)
    if body is None:
        body = _row_loop(_nonblank_rows(csv.reader(buf), path, line), path)
    data = np.concatenate((np.reshape(head, (-1, 2)),
                           np.reshape(body, (-1, 2))))
    if len(data) < 4:
        raise DomainError(f"{path}: need at least 4 rows, got {len(data)}")
    return PairedSample(x=data[:, 0], y=data[:, 1])


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


def _rho_grid(args) -> list:
    """The rho of --grid or of --rho, whichever of the two was given."""
    if args.grid is not None and args.rho is not None:
        raise DomainError(f"{args.command} takes --rho or --grid, not both")
    if args.grid is not None:
        return parse_grid(args.grid)
    if args.rho is not None:
        return [args.rho]
    raise DomainError(f"{args.command} requires --rho or --grid")


def _contamination(args):
    """The contamination parameters of simulate's flags, each unset one at
    its default, or None for the binormal model, which takes none."""
    flags = {"--epsilon": args.epsilon, "--lambda-x": args.lambda_x,
             "--lambda-y": args.lambda_y, "--lambda": args.lambda_both,
             "--rho-prime": args.rho_prime}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.model != "contaminated":
        if given:
            raise DomainError(f"{given[0]} needs --model contaminated")
        return None
    lam = args.lambda_both
    if lam is not None and (args.lambda_x, args.lambda_y) != (None, None):
        raise DomainError("give --lambda or --lambda-x/--lambda-y, "
                          "not both")
    lam = 1.0 if lam is None else lam

    def pick(value, default):
        return default if value is None else value

    return ContaminationParams(
        rho=0.0, epsilon=pick(args.epsilon, 0.0),
        lambda_x=pick(args.lambda_x, lam), lambda_y=pick(args.lambda_y, lam),
        rho_prime=pick(args.rho_prime, 0.0))


def cmd_simulate(args) -> int:
    rho_grid = tuple(_rho_grid(args))
    if args.n is None:
        raise DomainError("simulate requires --n")
    contamination = _contamination(args)
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
    grid = _rho_grid(args)
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

    def parse_known_args(self, args=None, namespace=None):
        # argparse reads a value that starts with a minus as a flag unless
        # it is a plain number, so "--rho -1e-3" would lack its value: such
        # a value is joined to the long flag before it, as "--rho=-1e-3"
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if joined and _NEGATIVE.match(f"{joined[-1]} {arg}"):
                joined[-1] += f"={arg}"
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


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
            # the contamination flags default to None, so that the binormal
            # model can refuse them; _contamination fills in 0, 1, 1, 0
            sp.add_argument("--epsilon", type=float, default=None)
            sp.add_argument("--lambda-x", type=float, default=None,
                            dest="lambda_x")
            sp.add_argument("--lambda-y", type=float, default=None,
                            dest="lambda_y")
            sp.add_argument("--lambda", type=float, default=None,
                            dest="lambda_both",
                            help="sets both --lambda-x and --lambda-y")
            sp.add_argument("--rho-prime", type=float, default=None,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not 1 <= args.precision <= 15:
        sys.stderr.write("precision must be in [1, 15]\n")
        return EXIT_DATA
    try:
        return args.func(args)
    except TieError as exc:
        sys.stderr.write(f"tied data: {exc}\n")
        return EXIT_DATA
    except (SizeError, DomainError, DegenerateError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return EXIT_DATA
    except (ConvergenceError, NegativeVarianceError, CrossCheckError) as exc:
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
