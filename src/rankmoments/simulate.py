"""Seedable Monte Carlo engine for verifying the moment theory.

Determinism contract: every (n-index, block-index) pair gets its own
counter-based Philox stream derived from the experiment seed, and one
draw from it serves every rho cell of the grid (common random numbers):
x and the contaminant mask do not depend on rho, and each cell makes
its y from the shared draw. So cells at different rho are correlated,
while each cell's own distribution is that of an independent run, and a
cell's rows are the same whichever other rho share its grid. Block
results are reduced in block order, so the output is bit-identical for
a given (config, seed) regardless of how many worker threads computed
the blocks.

Blocks take their coefficients from correlation.coefficients_rows_each and
their estimates from estimators.estimates, the bodies that single
samples and the estimate command use too.

The whole campaign is one stream of jobs, one per (n, block) and group
of rho. The grid is one group unless a job's results would pass
_JOB_BYTES (4 MB, 14 rho of a full block) or there are fewer (n, block)
draws than threads: then it is cut into as many groups as either needs,
and the job of each group makes the (n, block) draw again. A job makes
its draw on its worker thread and computes each rho cell of its group
from it: coefficients_rows_each sorts, tie-checks and centres each chunk
of x once for all the group's rho, and each rho's y is made one chunk of
rows at a time (_YRows). Worker threads compute the jobs, at most two
per worker ahead of the job the main thread is reducing, so the pool
does not drain at a block boundary and at most that many results are
held. A draw lives only while its job runs, so at most `workers` draws
are alive on any grid, and while a pool runs the main thread makes
none. A campaign of one job (one n, one block and one group), or of one
worker, runs on the main thread.
The main thread takes the results in job order: a cell's first block
gives the shift (its means), and every block of the cell adds raw power
sums shifted by it. So the final reduction reproduces two-pass central
moments to near machine precision while remaining a fixed-order sum of
per-block contributions, and the blocks themselves never wait for the
shift.
Cells and rows come out in the config's order, rho outer and n inner.
"""

from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import starmap

import numpy as np

from .binormal import cov_rs_rk_exact, lemma2_moments, omegas, var_rs_exact
from .contaminated import (ContaminationParams, expected_rk_contaminated,
                           expected_rs_contaminated, rival_formula_star,
                           sample_contaminated_block)
from .correlation import coefficients_rows_each
from .errors import DomainError, ResourceError
from .estimators import (EstimatorKind, bias_theoretical, estimates,
                         variance_theoretical)

_BLOCK = 4096            # trials per block; each block has its own stream
_BUDGET = 10 ** 9        # cap on trials * n per cell
_MAX_N = 2 ** 24         # cap on n: one row of one array is 128 MB
# cap on the results of one job: 9 floats per trial and rho (its
# coefficients and then its series)
_JOB_BYTES = 2 ** 22
# absolute slack of every verdict: the sqrt(eps) error of asin near +-1,
# which a cell of identical trials (se = 0) has no other way to absorb
_VERDICT_ALLOWANCE = 1e-8
# the series of a cell, in the order of a block's rows
_SERIES = ("r_s", "r_k", "pearson", "spearman", "kendall", "mixed")


@dataclass(frozen=True)
class ExperimentConfig:
    """One verification campaign: a grid of (rho, n) cells."""

    model: str                                   # "binormal" or "contaminated"
    rho_grid: tuple
    n_list: tuple
    trials: int
    seed: int
    contamination: ContaminationParams | None = None

    def __post_init__(self):
        if self.model not in ("binormal", "contaminated"):
            raise DomainError(f"unknown model {self.model!r}")
        if self.model == "contaminated" and self.contamination is None:
            raise DomainError("contaminated model needs ContaminationParams")
        if len(self.rho_grid) == 0 or len(self.n_list) == 0:
            raise DomainError("rho_grid and n_list must not be empty")
        if not all(isinstance(v, numbers.Integral)
                   for v in (self.trials, self.seed, *self.n_list)):
            raise DomainError("n, trials and seed must be integers")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if any(n < 4 for n in self.n_list):
            raise DomainError("every n must be >= 4")
        if any(not abs(r) <= 1 for r in self.rho_grid):
            raise DomainError("rho values must lie in [-1, 1]")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class SeriesStats:
    """Moments of one scalar series over all trials."""

    count: int
    mean: float
    var: float          # population (divide by count) central second moment
    mu3: float
    mu4: float

    @property
    def se_mean(self) -> float:
        return math.sqrt(max(self.var, 0.0) / self.count)

    @property
    def se_var(self) -> float:
        return math.sqrt(max(self.mu4 - self.var ** 2, 0.0) / self.count)


@dataclass(frozen=True)
class CellResult:
    """All accumulated statistics for one (rho, n) cell."""

    rho: float
    n: int
    trials: int
    series: dict                 # name -> SeriesStats
    cov_rs_rk: float
    se_cov_rs_rk: float

    def bias(self, name: str, target: float) -> float:
        return self.series[name].mean - target

    def mse(self, name: str, target: float) -> float:
        s = self.series[name]
        return s.var + (s.mean - target) ** 2

    def se_mse(self, name: str, target: float) -> float:
        # delta-method SE of mean((x - target)^2) from central moments
        s = self.series[name]
        b = s.mean - target
        nu4 = s.mu4 + 4 * b * s.mu3 + 6 * b * b * s.var + b ** 4
        nu2 = s.var + b * b
        return math.sqrt(max(nu4 - nu2 * nu2, 0.0) / s.count)


@dataclass(frozen=True)
class ReportRow:
    model: str
    rho: float
    n: int
    kind: str
    metric: str
    empirical: float
    theory: float | None
    se: float
    verdict: str = ""


@dataclass
class TrialReport:
    config: ExperimentConfig
    cells: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def threads_limit() -> int:
    """Worker thread count: the CPUs this process may run on, at most 8,
    capped by the RANKMOMENTS_THREADS variable."""
    cap = os.environ.get("RANKMOMENTS_THREADS")
    if hasattr(os, "sched_getaffinity"):
        avail = len(os.sched_getaffinity(0))
    else:
        avail = os.cpu_count() or 1
    if cap is None:
        return min(avail, 8)
    try:
        value = int(cap)
    except ValueError:
        raise DomainError(f"RANKMOMENTS_THREADS={cap!r} is not an integer")
    if value < 1:
        raise DomainError("RANKMOMENTS_THREADS must be >= 1")
    return min(value, avail)


def sample_binormal_block(n: int, stream: np.random.Generator,
                          size: int) -> tuple:
    """Independent standard normals for pairs of any rho, as a draw
    (x, v, None) with x and v of shape (size, n): with a, b = rho,
    sqrt(1 - rho^2), the pairs are (x, b v + a x)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x, v = stream.standard_normal((2, size, n))
    return x, v, None


class _YRows:
    """The y of one rho on a draw (x, v, mask), made a row slice at a
    time for correlation.coefficients_rows_each: sqrt(1 - rho^2) v + rho x,
    and v itself on the mask's entries."""

    def __init__(self, draw: tuple, rho: float):
        self.draw, self.rho = draw, rho
        self.b = math.sqrt(1 - rho * rho)

    def __getitem__(self, rows: slice) -> np.ndarray:
        x, v, mask = self.draw
        y = v[rows] * self.b
        y += self.rho * x[rows]
        if mask is not None:
            np.copyto(y, v[rows], where=mask[rows])
        return y


def _block_sums(values: np.ndarray, shifts: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Shifted raw power sums of each series (a row of values, in _SERIES
    order) as a (4, series) array of the sums of u, u^2, u^3 and u^4, and
    the four rank cross terms from the r_s and r_k rows."""
    u = values - shifts[:, None]
    u2 = u * u
    us_uk = u[0] * u[1]
    us2_uk = u2[0] * u[1]
    powers = np.stack([u.sum(axis=1), u2.sum(axis=1), (u2 * u).sum(axis=1),
                       (u2 * u2).sum(axis=1)])
    cross = np.stack([us_uk, us2_uk, us_uk * u[1], us2_uk * u[1]]).sum(axis=1)
    return powers, cross


def _finalize(powers: np.ndarray, cross: np.ndarray, trials: int,
              shifts: np.ndarray) -> tuple[dict, float, float]:
    series = {}
    raw = {}
    for name, (s1, s2, s3, s4), shift in zip(_SERIES, powers.T, shifts):
        r1, r2, r3, r4 = s1 / trials, s2 / trials, s3 / trials, s4 / trials
        mu2 = r2 - r1 * r1
        mu3 = r3 - 3 * r1 * r2 + 2 * r1 ** 3
        mu4 = r4 - 4 * r1 * r3 + 6 * r1 * r1 * r2 - 3 * r1 ** 4
        series[name] = SeriesStats(count=trials, mean=shift + r1,
                                   var=mu2, mu3=mu3, mu4=mu4)
        raw[name] = (r1, r2)
    c11, c21, c12, c22 = (v / trials for v in cross)
    us_m, us_r2 = raw["r_s"]
    uk_m, uk_r2 = raw["r_k"]
    cov = c11 - us_m * uk_m
    mu22 = (c22 - 2 * uk_m * c21 - 2 * us_m * c12
            + uk_m ** 2 * us_r2 + us_m ** 2 * uk_r2
            + 4 * us_m * uk_m * c11 - 3 * us_m ** 2 * uk_m ** 2)
    se_cov = math.sqrt(max(mu22 - cov * cov, 0.0) / trials)
    return series, cov, se_cov


def _draw(config: ExperimentConfig, j: int, b: int, size: int) -> tuple:
    """The draw of n index j and block index b: `size` samples from the
    Philox stream of (j, b)."""
    seq = np.random.SeedSequence(entropy=config.seed, spawn_key=(j, b))
    stream = np.random.Generator(np.random.Philox(seq))
    n = int(config.n_list[j])
    if config.model == "binormal":
        return sample_binormal_block(n, stream, size)
    return sample_contaminated_block(config.contamination, n, stream, size)


def _block(config: ExperimentConfig, rhos: list, j: int, b: int,
           size: int) -> np.ndarray:
    """Every series of each rho's trials on the draw of n index j and
    block index b, as a (rho, series, trial) array."""
    draw = _draw(config, j, b, size)
    n = draw[0].shape[1]
    coefficients = coefficients_rows_each(
        draw[0], [_YRows(draw, rho) for rho in rhos])
    del draw                # the job's largest arrays: free them early
    out = np.empty((len(rhos), len(_SERIES), size))
    for cell, (r_p, r_s, r_k) in zip(out, coefficients):
        est = estimates(r_p, r_s, r_k, n)
        np.stack([r_s, r_k, *(est[name] for name in _SERIES[2:])], out=cell)
    return out


def _in_order(pool, fn, jobs: list, window: int):
    """fn(*job) for every job, run on the pool and yielded in job order.

    At most `window` jobs are in flight (submitted and not yet yielded),
    so at most that many results are held.
    """
    pending = deque()
    for job in jobs:
        pending.append(pool.submit(fn, *job))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_experiment(config: ExperimentConfig) -> TrialReport:
    """Run the whole grid and attach theory values to every cell."""
    for n in config.n_list:
        if n > _MAX_N:
            raise ResourceError(f"n = {n} is above the simulate bound "
                                f"2**24 = {_MAX_N}")
        if config.trials * n > _BUDGET:
            raise ResourceError(
                f"cell budget exceeded: trials*n = {config.trials * n} "
                f"> {_BUDGET}")
    if config.model == "binormal":
        omegas(config.rho_grid)  # the theory rows' omegas, in lock-step passes
    trials = config.trials
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    sizes = [_BLOCK] * (n_blocks - 1) + [trials - _BLOCK * (n_blocks - 1)]
    grid = [float(rho) for rho in config.rho_grid]
    threads = threads_limit()
    draws = len(config.n_list) * n_blocks
    # Cut the grid into groups of rho, each with a job per (n, block):
    # enough groups that a job's results stay within _JOB_BYTES, and, on
    # fewer draws than threads, enough that every thread has a job.
    per_job = max(1, _JOB_BYTES // (9 * 8 * sizes[0]))
    groups = max(-(-len(grid) // per_job),
                 min(len(grid), -(-threads // draws)))
    cuts = [len(grid) * g // groups for g in range(groups + 1)]
    # (first rho index, rho group, n index, block index) of each job, in
    # job order
    jobs = [(lo, grid[lo:hi], j, b) for j in range(len(config.n_list))
            for b in range(n_blocks) for lo, hi in zip(cuts, cuts[1:])]
    workers = min(threads, len(jobs))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None

    def block(lo, rhos, j, b):
        return _block(config, rhos, j, b, sizes[b])

    sums = {}               # (rho index, n index) -> (shifts, powers, cross)
    try:
        if pool is None:
            blocks = starmap(block, jobs)
        else:
            blocks = _in_order(pool, block, jobs, 2 * workers)
        for (lo, _, j, b), values in zip(jobs, blocks, strict=True):
            for i, cell in enumerate(values, lo):
                if b == 0:
                    shifts = cell.mean(axis=1)
                    sums[i, j] = (shifts, *_block_sums(cell, shifts))
                    continue
                # fixed reduction order: a cell's blocks arrive in order
                shifts, powers, cross = sums[i, j]
                block_powers, block_cross = _block_sums(cell, shifts)
                powers += block_powers
                cross += block_cross
    finally:
        if pool is not None:
            # a failed block leaves later jobs queued: drop them, then join
            pool.shutdown(cancel_futures=True)
    report = TrialReport(config=config)
    for (i, j), (shifts, powers, cross) in sorted(sums.items()):
        # rho outer, n inner
        series, cov, se_cov = _finalize(powers, cross, trials, shifts)
        cell = CellResult(rho=grid[i], n=int(config.n_list[j]), trials=trials,
                          series=series, cov_rs_rk=cov, se_cov_rs_rk=se_cov)
        report.cells.append(cell)
        report.rows.extend(_theory_rows(config, cell))
    return report


def _theory_rows(config: ExperimentConfig, cell: CellResult) -> list:
    rho, n = cell.rho, cell.n
    model = config.model
    rows = []

    def add(kind, metric, empirical, theory, se):
        rows.append(ReportRow(model=model, rho=rho, n=n, kind=kind,
                              metric=metric, empirical=empirical,
                              theory=theory, se=se))

    rs, rk = cell.series["r_s"], cell.series["r_k"]
    if model == "binormal":
        lm = lemma2_moments(rho, n)
        add("r_s", "mean", rs.mean, lm["mean_rs"], rs.se_mean)
        add("r_s", "var", rs.var, var_rs_exact(rho, n), rs.se_var)
        add("r_k", "mean", rk.mean, lm["mean_rk"], rk.se_mean)
        add("r_k", "var", rk.var, lm["var_rk"], rk.se_var)
        add("joint", "cov_rs_rk", cell.cov_rs_rk, cov_rs_rk_exact(rho, n),
            cell.se_cov_rs_rk)
    else:
        params = replace(config.contamination, rho=rho)
        add("r_s", "mean", rs.mean, expected_rs_contaminated(params, n),
            rs.se_mean)
        add("r_s", "mean_rival", rs.mean, rival_formula_star(params),
            rs.se_mean)
        add("r_k", "mean", rk.mean, expected_rk_contaminated(params), rk.se_mean)
        add("r_s", "var", rs.var, None, rs.se_var)
        add("r_k", "var", rk.var, None, rk.se_var)
        add("joint", "cov_rs_rk", cell.cov_rs_rk, None, cell.se_cov_rs_rk)

    for kind in sorted(EstimatorKind, key=lambda k: k.value):
        name = kind.value
        s = cell.series[name]
        if model == "binormal":
            tb = bias_theoretical(kind, rho, n)
            tv = variance_theoretical(kind, rho, n)
            tm = tv + tb * tb
        else:
            tb = tv = tm = None
        add(name, "bias", cell.bias(name, rho), tb, s.se_mean)
        add(name, "var", s.var, tv, s.se_var)
        add(name, "mse", cell.mse(name, rho), tm, cell.se_mse(name, rho))
    return rows


@dataclass(frozen=True)
class ComparisonSummary:
    passed: int
    failed: int
    skipped: int
    rows: tuple


def compare_report(report: TrialReport, tol_sigmas: float) -> ComparisonSummary:
    """Attach PASS/FAIL verdicts at tol_sigmas standard errors plus 1e-8."""
    if not report.rows:
        raise DomainError("empty report")
    # an infinite tolerance would read inf * 0 = nan on every se = 0 row
    if not 0 < tol_sigmas < math.inf:
        raise DomainError("tol_sigmas must be finite and > 0")
    out = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for row in report.rows:
        if row.theory is None:
            verdict = "SKIP"
        elif (abs(row.empirical - row.theory)
              <= tol_sigmas * row.se + _VERDICT_ALLOWANCE):
            verdict = "PASS"
        else:
            verdict = "FAIL"
        counts[verdict] += 1
        out.append(replace(row, verdict=verdict))
    return ComparisonSummary(passed=counts["PASS"], failed=counts["FAIL"],
                             skipped=counts["SKIP"], rows=tuple(out))


def format_report_csv(rows, precision: int = 10) -> str:
    from .formatting import format_fixed, label_places

    places = label_places([r.rho for r in rows], 4)
    out = ["model,rho,n,kind,metric,empirical,theory,se,verdict"]
    for r in rows:
        theory = "" if r.theory is None else format_fixed(r.theory, precision)
        out.append(",".join([
            r.model, format_fixed(r.rho, places), str(r.n), r.kind, r.metric,
            format_fixed(r.empirical, precision), theory,
            format_fixed(r.se, precision), r.verdict,
        ]))
    return "\n".join(out) + "\n"
