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

Blocks take their coefficients from correlation.coefficients_rows and
their estimates from estimators.estimates, the bodies that single
samples and the estimate command use too.

The whole campaign is one stream of (n, block, rho) jobs, rho
innermost, made on the main thread. On a grid of several rho it makes
each (n, block) draw once and passes it to the block's rho jobs by
reference, so the draw is freed when the last job that holds it ends.
On a grid of one rho no job shares a draw, so each job makes its own
on its worker: draws are made in parallel and a queued job holds none.
Worker threads compute the jobs, at most two per worker ahead of the
job the main thread is reducing, so the pool does not drain at a block
boundary and at most that many results are held. So at most
ceil(2 workers / len(grid)) + 1 draws are alive on a grid of several
rho, which is at most workers + 1, and at most workers on a grid of
one. A campaign of one job, or of one worker, runs on the main thread.
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
from functools import partial
from itertools import starmap

import numpy as np

from .binormal import cov_rs_rk_exact, lemma2_moments, omegas, var_rs_exact
from .contaminated import (ContaminationParams, expected_rk_contaminated,
                           expected_rs_contaminated, rival_formula_star,
                           sample_contaminated_block)
from .correlation import coefficients_rows
from .errors import DomainError, ResourceError
from .estimators import (EstimatorKind, bias_theoretical, estimates,
                         variance_theoretical)

_BLOCK = 4096            # trials per block; each block has its own stream
_BUDGET = 10 ** 9        # cap on trials * n per cell
_MAX_N = 2 ** 24         # cap on n: one row of one array is 128 MB
_CHUNK = 2 ** 15         # values per step of the per-rho transform
# absolute slack of every verdict: the sqrt(eps) error of asin near +-1,
# which a cell of identical trials (se = 0) has no other way to absorb
_VERDICT_ALLOWANCE = 1e-8


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
    (x, v, None, None) with x and v of shape (size, n): with a, b = rho,
    sqrt(1 - rho^2), the pairs are (x, b v + a x)."""
    if n < 1:
        raise DomainError("n must be >= 1")
    x, v = stream.standard_normal((2, size, n))
    return x, v, None, None


def _pairs(draw: tuple, rho: float, in_place: bool = False
           ) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of one rho from a draw (x, v, mask, y_masked): y is
    sqrt(1 - rho^2) v + rho x, then y_masked on the mask's entries.

    The rho x term is added _CHUNK values at a time, so y is the only
    block-sized array made. in_place writes y over v, for a draw that
    no other rho will read.
    """
    x, v, mask, y_masked = draw
    b = math.sqrt(1 - rho * rho)
    y = v if in_place else np.empty_like(v)
    step = max(1, _CHUNK // v.shape[1])
    for lo in range(0, len(v), step):
        rows = slice(lo, lo + step)
        np.multiply(v[rows], b, out=y[rows])
        y[rows] += rho * x[rows]
    if mask is not None:
        y[mask] = y_masked
    return x, y


def _block_sums(values: dict, shifts: dict) -> dict:
    """Shifted raw power sums for every series, plus the rank cross terms."""
    out = {}
    for name, arr in values.items():
        u = arr - shifts[name]
        u2 = u * u
        out[name] = (len(arr), u.sum(), u2.sum(), (u2 * u).sum(), (u2 * u2).sum())
    us = values["r_s"] - shifts["r_s"]
    uk = values["r_k"] - shifts["r_k"]
    out["__cross__"] = ((us * uk).sum(), (us * us * uk).sum(),
                        (us * uk * uk).sum(), (us * us * uk * uk).sum())
    return out


def _finalize(total_sums: dict, trials: int, shifts: dict
              ) -> tuple[dict, float, float]:
    series = {}
    raw = {}
    for name, sums in total_sums.items():
        if name == "__cross__":
            continue
        _, s1, s2, s3, s4 = sums
        r1, r2, r3, r4 = s1 / trials, s2 / trials, s3 / trials, s4 / trials
        mu2 = r2 - r1 * r1
        mu3 = r3 - 3 * r1 * r2 + 2 * r1 ** 3
        mu4 = r4 - 4 * r1 * r3 + 6 * r1 * r1 * r2 - 3 * r1 ** 4
        series[name] = SeriesStats(count=trials, mean=shifts[name] + r1,
                                   var=mu2, mu3=mu3, mu4=mu4)
        raw[name] = (r1, r2)
    c11, c21, c12, c22 = (v / trials for v in total_sums["__cross__"])
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


def _jobs(config: ExperimentConfig, sizes: list, grid: list, keys: list):
    """(draw, rho, in_place) for each (rho index, n index, block index)
    key, rho innermost. With several rho the (n, block) draw is made
    here, once, and shared by its rho jobs; with one rho there is
    nothing to share, so the job gets the means to make its draw, and
    writes its y over v."""
    for i, j, b in keys:
        if len(grid) == 1:
            yield partial(_draw, config, j, b, sizes[b]), grid[0], True
            continue
        if i == 0:
            draw = _draw(config, j, b, sizes[b])
        yield draw, grid[i], False
        if i == len(grid) - 1:
            del draw        # before the next draw: only its jobs hold it


def _cell_block(draw, rho: float, in_place: bool) -> dict:
    """Every series of one rho's trials on an (n, block) draw, or on the
    draw that the function `draw` makes."""
    if callable(draw):
        draw = draw()
    x, y = _pairs(draw, rho, in_place)
    r_p, r_s, r_k = coefficients_rows(x, y)
    return {"r_s": r_s, "r_k": r_k, **estimates(r_p, r_s, r_k, x.shape[1])}


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
    # (rho index, n index, block index) of each job, in job order
    keys = [(i, j, b) for j in range(len(config.n_list))
            for b in range(n_blocks) for i in range(len(grid))]
    workers = min(threads_limit(), len(keys))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    sums = {}               # (rho index, n index) -> (shifts, sums)
    try:
        jobs = _jobs(config, sizes, grid, keys)
        if pool is None:
            blocks = starmap(_cell_block, jobs)
        else:
            blocks = _in_order(pool, _cell_block, jobs, 2 * workers)
        for (i, j, b), values in zip(keys, blocks, strict=True):
            if b == 0:
                shifts = {name: float(arr.mean())
                          for name, arr in values.items()}
                sums[i, j] = (shifts, _block_sums(values, shifts))
                continue
            # fixed reduction order: a cell's blocks arrive in block order
            shifts, total = sums[i, j]
            for name, block in _block_sums(values, shifts).items():
                total[name] = tuple(a + c for a, c in zip(total[name], block))
    finally:
        if pool is not None:
            # a failed block leaves later jobs queued: drop them, then join
            pool.shutdown(cancel_futures=True)
    report = TrialReport(config=config)
    for (i, j), (shifts, total) in sorted(sums.items()):  # rho outer, n inner
        series, cov, se_cov = _finalize(total, trials, shifts)
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
    if not tol_sigmas > 0:
        raise DomainError("tol_sigmas must be > 0")
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
