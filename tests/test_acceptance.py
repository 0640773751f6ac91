"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line. Heavy Monte Carlo runs are shared across criteria via
module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from rankmoments.binormal import (cov_rs_rk_asymptotic, cov_rs_rk_exact,
                                  cov_series_asymptotic, omegas,
                                  pattern_w, var_rs_exact)
from rankmoments.cli import main as cli_main
from rankmoments.contaminated import (ContaminationParams,
                                      expected_rk_contaminated,
                                      expected_rs_contaminated,
                                      rival_formula_star)
from rankmoments.correlation import (PairedSample, inequality_check, kendall,
                                     spearman)
from rankmoments.estimators import EstimatorKind, are
from rankmoments.orthant import CorrelationMatrix4, orthant_p4
from rankmoments.simulate import ExperimentConfig, run_experiment

from oracles import s_statistic

TRIALS = 100_000
ARE_TRIALS = 20_000


def verdict(num, ok, detail=""):
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def mc_grid():
    cfg = ExperimentConfig(model="binormal",
                           rho_grid=(0.0, 0.3, 0.6, 0.9),
                           n_list=(10, 20, 40), trials=TRIALS, seed=20260826)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_bias():
    cfg = ExperimentConfig(model="binormal",
                           rho_grid=(-0.9, -0.6, -0.3, 0.3, 0.6, 0.9),
                           n_list=(10,), trials=TRIALS, seed=77)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_are():
    cfg = ExperimentConfig(model="binormal", rho_grid=(0.0, 0.5, 0.9),
                           n_list=(1000,), trials=ARE_TRIALS, seed=99)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mc_contaminated():
    reports = {}
    for eps in (0.01, 0.05):
        cont = ContaminationParams(rho=0.0, epsilon=eps, lambda_x=100.0,
                                   lambda_y=100.0, rho_prime=0.0)
        cfg = ExperimentConfig(model="contaminated",
                               rho_grid=(-0.9, -0.6, -0.3, 0.3, 0.6, 0.9),
                               n_list=(50,), trials=TRIALS, seed=4242,
                               contamination=cont)
        reports[eps] = run_experiment(cfg)
    return reports


def test_criterion_01_anchor_exactness():
    start = time.time()
    a = omegas(0.0)
    b = omegas(1.0)
    errs = [abs(a.omega1 - 1 / 9), abs(a.omega2 - 5 / 9),
            abs(a.omega3 - 1 / 18), abs(b.omega1 - 1.0),
            abs(b.omega2 - 16 / 3), abs(b.omega3 - 0.5)]
    elapsed = time.time() - start
    verdict(1, max(errs) < 1e-9 and elapsed < 5,
            f"max err {max(errs):.2e}, {elapsed:.2f}s")


def test_criterion_02_w_identities():
    start = time.time()
    worst = 0.0
    for k in range(11):
        w = pattern_w("deghlmpq", k / 10)
        worst = max(worst,
                    abs(w["e"] - 2 * w["d"]), abs(w["g"] - w["p"]),
                    abs(w["h"] - w["q"]), abs(w["m"] - 2 * w["l"] - 1 / 3))
    elapsed = time.time() - start
    verdict(2, worst < 1e-10 and elapsed < 60,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_special_cases():
    worst = 0.0
    for n in range(4, 101):
        worst = max(worst, abs(var_rs_exact(0.0, n) - 1 / (n - 1)),
                    abs(cov_rs_rk_exact(0.0, n)
                        - 2 * (n + 1) / (3 * n * (n - 1))))
    degenerate = max(abs(var_rs_exact(1.0, 10)), abs(var_rs_exact(-1.0, 10)),
                     abs(cov_rs_rk_exact(1.0, 10)),
                     abs(cov_rs_rk_exact(-1.0, 10)))
    verdict(3, worst < 1e-12 and degenerate < 1e-9,
            f"rho=0 worst {worst:.2e}, degenerate {degenerate:.2e}")


def test_criterion_04_integral_identity():
    start = time.time()
    worst = 0.0
    for k in range(21):
        rho = k * 0.05
        om = omegas(rho)
        worst = max(worst,
                    abs(om.omega3 - 1 / 18 - 2 * om.omega4 / math.pi ** 2))
    elapsed = time.time() - start
    verdict(4, worst < 1e-8 and elapsed < 120,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_05_series_consistency():
    n = 50
    worst = 0.0
    for k in range(-6, 7):
        rho = k * 0.05
        worst = max(worst, abs(n * cov_rs_rk_asymptotic(rho, n)
                               - n * cov_series_asymptotic(rho, n)))
    verdict(5, worst < 1e-5, f"worst {worst:.2e}")


def test_criterion_06_mc_vs_exact(mc_grid):
    start = time.time()
    bad = []
    for cell in mc_grid.cells:
        rs = cell.series["r_s"]
        v_th = var_rs_exact(cell.rho, cell.n)
        c_th = cov_rs_rk_exact(cell.rho, cell.n)
        if abs(rs.var - v_th) > 4 * rs.se_var:
            bad.append(("var", cell.rho, cell.n))
        if abs(cell.cov_rs_rk - c_th) > 4 * cell.se_cov_rs_rk:
            bad.append(("cov", cell.rho, cell.n))
    elapsed = time.time() - start
    verdict(6, not bad and elapsed < 600, f"failures {bad}")


def test_criterion_07_bias_ordering(mc_bias):
    bad = []
    for cell in mc_bias.cells:
        b = {name: abs(cell.bias(name, cell.rho))
             for name in ("pearson", "spearman", "kendall", "mixed")}
        if not (b["mixed"] < b["pearson"] < b["kendall"] < b["spearman"]):
            bad.append((cell.rho, {k: round(v, 5) for k, v in b.items()}))
    verdict(7, not bad, f"violations {bad}")


def test_criterion_08_are_endpoints():
    e1 = abs(are(EstimatorKind.SPEARMAN, 0.0) - 9 / math.pi ** 2)
    e2 = abs(are(EstimatorKind.KENDALL, 0.0) - 9 / math.pi ** 2)
    e3 = abs(are(EstimatorKind.SPEARMAN, 1.0) - (15 + 11 * math.sqrt(5)) / 57)
    e4 = abs(are(EstimatorKind.KENDALL, 1.0) - 3 * math.sqrt(3) / (2 * math.pi))
    dominated = all(
        are(EstimatorKind.KENDALL, k / 100)
        >= are(EstimatorKind.SPEARMAN, k / 100) - 1e-12
        for k in range(101))
    verdict(8, e1 < 1e-10 and e2 < 1e-10 and e3 < 1e-9 and e4 < 1e-12
            and dominated,
            f"endpoint errs {e1:.1e} {e2:.1e} {e3:.1e} {e4:.1e}, "
            f"dominance {dominated}")


def test_criterion_09_are_simulation(mc_are):
    bad = []
    for cell in mc_are.cells:
        ratio = cell.series["pearson"].var / cell.series["kendall"].var
        theory = are(EstimatorKind.KENDALL, cell.rho)
        rel = abs(ratio / theory - 1)
        if rel > 0.10:
            bad.append((cell.rho, round(rel, 4)))
    verdict(9, not bad, f"relative errors over 10%: {bad}")


def test_criterion_10_contaminated_means(mc_contaminated):
    bad = []
    for eps, report in mc_contaminated.items():
        for cell in report.cells:
            p = ContaminationParams(rho=cell.rho, epsilon=eps,
                                    lambda_x=100.0, lambda_y=100.0,
                                    rho_prime=0.0)
            rk, rs = cell.series["r_k"], cell.series["r_s"]
            if abs(rk.mean - expected_rk_contaminated(p)) > 4 * rk.se_mean:
                bad.append(("rk", eps, cell.rho))
            if abs(rs.mean - expected_rs_contaminated(p, cell.n)) \
                    > 4 * rs.se_mean:
                bad.append(("rs", eps, cell.rho))
    # the rival closed form must be rejected where it deviates most
    cell9 = next(c for c in mc_contaminated[0.05].cells if c.rho == 0.9)
    p9 = ContaminationParams(rho=0.9, epsilon=0.05, lambda_x=100.0,
                             lambda_y=100.0, rho_prime=0.0)
    rs9 = cell9.series["r_s"]
    rival_rejected = abs(rs9.mean - rival_formula_star(p9)) > 4 * rs9.se_mean
    verdict(10, not bad and rival_rejected,
            f"failures {bad}, rival rejected {rival_rejected}")


def test_criterion_11_mse_robustness(mc_contaminated):
    cell = next(c for c in mc_contaminated[0.05].cells if c.rho == 0.6)
    mse = {name: cell.mse(name, cell.rho)
           for name in ("pearson", "spearman", "kendall", "mixed")}
    others = max(mse["spearman"], mse["kendall"], mse["mixed"])
    verdict(11, mse["pearson"] > 5 * others,
            f"mse_P {mse['pearson']:.4f} vs 5*max(others) {5 * others:.4f}")


def test_criterion_12_property_suites():
    rng = np.random.default_rng(2718)
    ok_s = ok_ineq = True
    for _ in range(1000):
        n = int(rng.integers(3, 51))
        s = PairedSample(x=rng.permutation(n) + 1.0,
                         y=rng.permutation(n) + 1.0)
        rs, rk = spearman(s), kendall(s)
        # S from raw comparisons, independent of the package's rank code
        ok_s = ok_s and float(s_statistic(s.x, s.y)[0]) == rs
        d, ds = inequality_check(rs, rk, n)
        ok_ineq = ok_ineq and d and ds

    # many small scrambled replicates: the replicate distribution of a
    # discontinuous indicator under scrambling is heavy-tailed, so a
    # large replicate count is needed for a trustworthy standard error
    reps, points = 24, []
    for _ in range(reps):
        eng = qmc.Sobol(d=4, scramble=True, seed=int(rng.integers(2 ** 63)))
        points.append(ndtri(eng.random(2 ** 14)))
    ok_orthant = True
    for _ in range(50):
        a = rng.standard_normal((4, 6))
        cov = a @ a.T + 0.5 * np.eye(4)
        d = np.sqrt(np.diag(cov))
        m = CorrelationMatrix4(rho=cov / np.outer(d, d))
        chol = np.linalg.cholesky(m.rho + 1e-12 * np.eye(4))
        means = np.array([((p @ chol.T) > 0).all(axis=1).mean()
                          for p in points])
        se = max(means.std(ddof=1) / math.sqrt(reps), 1e-7)
        if abs(orthant_p4(m) - means.mean()) > 4 * se:
            ok_orthant = False
    verdict(12, ok_s and ok_ineq and ok_orthant,
            f"s-identity {ok_s}, inequalities {ok_ineq}, orthant {ok_orthant}")


def test_criterion_13_table_regeneration(tmp_path):
    start = time.time()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli_main(["tables", "--grid", "0(0.01)1", "--out", str(a)])
    code2 = cli_main(["tables", "--grid", "0(0.01)1", "--out", str(b)])
    elapsed = time.time() - start
    rows = a.read_text().splitlines()
    ok = (code1 == 0 and code2 == 0 and len(rows) == 102
          and a.read_bytes() == b.read_bytes()
          and all(len(r.split(",")) == 4 for r in rows)
          and all(len(r.split(",")[1].split(".")[1]) == 10
                  for r in rows[1:])
          and elapsed < 120)
    verdict(13, ok, f"{len(rows) - 1} data rows, {elapsed:.1f}s")
