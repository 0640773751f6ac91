"""Seedable Monte Carlo engine for verifying the moment theory.

Determinism contract: every (rho-index, n-index, block-index) cell gets
its own counter-based Philox stream derived from the experiment seed, and
block results are reduced in block order. The output is therefore
bit-identical for a given (config, seed) regardless of how many worker
threads computed the blocks.

Blocks take their coefficients from correlation.coefficients_rows and
their estimates from estimators.estimates, the bodies that single
samples and the estimate command use too.

The whole campaign is one stream of (rho, n, block) jobs, cell by cell
and block by block. Worker threads compute the blocks, at most two per
worker ahead of the block the main thread is reducing, so the pool does
not drain at a cell boundary and at most that many results are held. A
campaign of one block runs on the main thread. The main thread takes
the results in job order: a cell's first block gives the shift (its
means), and every block of the cell adds raw power sums shifted by it.
So the final reduction reproduces two-pass central moments to near
machine precision while remaining a fixed-order sum of per-block
contributions, and the blocks themselves never wait for the shift.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import starmap

import numpy as np

from .binormal import (_check_rho, cov_rs_rk_exact, lemma2_moments, omegas,
                       var_rs_exact)
from .contaminated import (ContaminationParams, expected_rk_contaminated,
                           expected_rs_contaminated, rival_formula_star,
                           sample_contaminated_block)
from .correlation import coefficients_rows
from .errors import DomainError, ResourceError
from .estimators import (EstimatorKind, bias_theoretical, estimates,
                         variance_theoretical)

_BLOCK = 4096            # trials per block; each block has its own stream
_BUDGET = 10 ** 9        # cap on trials * n per cell
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
    """Worker thread count, capped by the RANKMOMENTS_THREADS variable."""
    cap = os.environ.get("RANKMOMENTS_THREADS")
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


def sample_binormal_block(rho: float, n: int, stream: np.random.Generator,
                          size: int) -> tuple[np.ndarray, np.ndarray]:
    """Standard-marginal correlated pairs, shape (size, n) each."""
    _check_rho(rho)
    if n < 1:
        raise DomainError("n must be >= 1")
    u, v = stream.standard_normal((2, size, n))
    v *= math.sqrt(1 - rho * rho)
    v += rho * u
    return u, v


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


def _cell_block(config: ExperimentConfig, rho: float, n: int,
                rho_idx: int, n_idx: int, block_idx: int, size: int) -> dict:
    seq = np.random.SeedSequence(entropy=config.seed,
                                 spawn_key=(rho_idx, n_idx, block_idx))
    stream = np.random.Generator(np.random.Philox(seq))
    if config.model == "binormal":
        x, y = sample_binormal_block(rho, n, stream, size)
    else:
        params = replace(config.contamination, rho=rho)
        x, y = sample_contaminated_block(params, n, stream, size)
    r_p, r_s, r_k = coefficients_rows(x, y)
    return {"r_s": r_s, "r_k": r_k, **estimates(r_p, r_s, r_k, n)}


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
        if config.trials * n > _BUDGET:
            raise ResourceError(
                f"cell budget exceeded: trials*n = {config.trials * n} "
                f"> {_BUDGET}")
    if config.model == "binormal":
        omegas(config.rho_grid)  # the theory rows' omegas, in lock-step passes
    trials = config.trials
    n_blocks = (trials + _BLOCK - 1) // _BLOCK
    sizes = [_BLOCK] * (n_blocks - 1) + [trials - _BLOCK * (n_blocks - 1)]
    jobs = [(config, float(rho), int(n), i, j, b, sizes[b])
            for i, rho in enumerate(config.rho_grid)
            for j, n in enumerate(config.n_list)
            for b in range(n_blocks)]
    workers = min(threads_limit(), len(jobs))
    report = TrialReport(config=config)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        if pool is None:
            blocks = starmap(_cell_block, jobs)
        else:
            blocks = _in_order(pool, _cell_block, jobs, 2 * workers)
        for (_, rho, n, _, _, b, _), values in zip(jobs, blocks):
            if b == 0:
                shifts = {name: float(arr.mean())
                          for name, arr in values.items()}
                total = _block_sums(values, shifts)
            else:
                # fixed reduction order: blocks arrive in block-index order
                for key, sums in _block_sums(values, shifts).items():
                    total[key] = tuple(a + c for a, c in zip(total[key], sums))
            if b == n_blocks - 1:
                series, cov, se_cov = _finalize(total, trials, shifts)
                cell = CellResult(rho=rho, n=n, trials=trials, series=series,
                                  cov_rs_rk=cov, se_cov_rs_rk=se_cov)
                report.cells.append(cell)
                report.rows.extend(_theory_rows(config, cell))
    finally:
        if pool is not None:
            # a failed block leaves later jobs queued: drop them, then join
            pool.shutdown(cancel_futures=True)
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
