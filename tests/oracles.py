"""Independent references: the rank statistics as O(n^2) comparisons of
the raw values, with no sort and no rank code from the package, the
`estimate` CSV reader as a plain csv.reader row loop, the estimators'
bias and variance formulas written out per kind, and the table writers'
fixed-point rendering as one Decimal quantize."""

import csv
import math
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction

import numpy as np

from rankmoments.binormal import (cov_rs_rk_exact, lemma2_moments, omegas,
                                  var_rs_exact)
from rankmoments.cli import _IoFailure
from rankmoments.correlation import PairedSample
from rankmoments.errors import DomainError


def s_statistic(x, y):
    """(r_S, T) of a tie-free sample, from the S statistic.

    S = sum_i #{j: x_j < x_i} * #{k: y_k < y_i} is the triple-indicator
    sum over (i, j, k) of H(x_i - x_j) H(y_i - y_k), and r_S is the exact
    rational 12 (S - n(n-1)^2/4) / (n(n^2-1)).
    T = sum_{i != j} sign(x_i - x_j) sign(y_i - y_j) is n(n-1) r_K.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    below_x = (x[None, :] < x[:, None]).sum(axis=1)
    below_y = (y[None, :] < y[:, None]).sum(axis=1)
    s = sum(int(a) * int(b) for a, b in zip(below_x, below_y))
    r_s = 12 * (Fraction(s) - Fraction(n * (n - 1) ** 2, 4)) \
        / (n * (n * n - 1))
    signs = (np.sign(x[:, None] - x[None, :])
             * np.sign(y[:, None] - y[None, :]))
    return r_s, int(signs.sum())


def read_pairs_oracle(path):
    """The `estimate` reader as a csv.reader row loop, the one np.loadtxt
    replaced. It differs from the package's reader on purpose in four
    ways: a first row with one number in its first two cells is a header
    here, a bad row is named by its count among the non-blank rows, not
    by its physical line, and undecodable bytes and an over-long cell
    raise UnicodeDecodeError and csv.Error.
    """
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


# The estimators' leading-order bias and variance, one hand-expanded
# formula per kind, and Spearman's limiting variance as var_rs_asymptotic
# and the Spearman efficiency wrote it out, before the delta-method body
# replaced them.

def _mixed_form(rho: float, n: int) -> float:
    # (n+1)^2 sigma_S^2 - 6(n+1) sigma_SK + 9 sigma_K^2, the quadratic form
    # in the mixed estimator's bias and variance
    sig2_s = n * var_rs_exact(rho, n)
    sig2_k = n * lemma2_moments(rho, n)["var_rk"]
    sig_sk = n * cov_rs_rk_exact(rho, n)
    return (n + 1) ** 2 * sig2_s - 6 * (n + 1) * sig_sk + 9 * sig2_k


def bias_oracle(kind: str, rho: float, n: int) -> float:
    """Leading-order bias of the estimator named by an EstimatorKind value."""
    s1 = math.asin(rho)
    s2 = math.asin(rho / 2)
    pi2 = math.pi ** 2
    if kind == "pearson":
        return -rho * (1 - rho * rho) / (2 * n)
    if kind == "spearman":
        sig2_s = n * var_rs_exact(rho, n)
        return (math.sqrt(4 - rho * rho) * (s1 - 3 * s2) / (n + 1)
                - pi2 * rho * sig2_s / (72 * n))
    if kind == "kendall":
        sig2_k = n * lemma2_moments(rho, n)["var_rk"]
        return -pi2 * rho * sig2_k / (8 * n)
    return -(pi2 * rho / (72 * n * (n - 2) ** 2)) * _mixed_form(rho, n)


def variance_oracle(kind: str, rho: float, n: int) -> float:
    """Leading-order variance of the estimator named by an EstimatorKind
    value."""
    pi2 = math.pi ** 2
    if kind == "pearson":
        return (1 - rho * rho) ** 2 / (n - 1)
    if kind == "spearman":
        return pi2 * (4 - rho * rho) / 36 * var_rs_exact(rho, n)
    if kind == "kendall":
        var_rk = lemma2_moments(rho, n)["var_rk"]
        return pi2 * (1 - rho * rho) / 4 * var_rk
    return (pi2 * (4 - rho * rho) / (36 * n * (n - 2) ** 2)) * _mixed_form(
        rho, n)


def var_rs_asymptotic_oracle(rho: float, n: int) -> float:
    """Leading-order var(r_S), before its clamp."""
    om = omegas(rho)
    s2 = math.asin(rho / 2)
    return (9 * om.omega1 - 324 * s2 * s2 / math.pi ** 2) / n


def are_rank_oracle(rho: float) -> float:
    """Efficiency of the Spearman and mixed estimators."""
    if abs(rho) == 1.0:
        return (15 + 11 * math.sqrt(5)) / 57
    s2 = math.asin(rho / 2)
    om1 = omegas(rho).omega1
    denom = (4 - rho * rho) * (9 * math.pi ** 2 * om1 - 324 * s2 * s2)
    return 36 * (1 - rho * rho) ** 2 / denom


def format_fixed_oracle(value: float, places: int) -> str:
    """format_fixed as a Decimal quantize of the repr for every value,
    the body its fast paths must match byte for byte."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    quantum = Decimal(1).scaleb(-places)
    text = format(Decimal(repr(value)).quantize(quantum,
                                                rounding=ROUND_HALF_EVEN), "f")
    # normalize "-0.00..." to the positive form
    if text.startswith("-") and float(text) == 0.0:
        text = text[1:]
    return text


# The contaminated model's difference correlations as the paper tables
# them: rho_1..rho_12 written out one by one with their weights, an
# independent route to the entries mixture_correlations generates from
# the two components. The triple entries come in the paper's order, which
# has rho_8 and rho_9 the other way round from the generated order.

def mixture_correlations_oracle(params) -> tuple:
    """Correlations of standardized differences, by component pattern,
    as (pair, triple), each a tuple of (correlation, weight).

    pair holds rho_1..rho_4, the differences of two observations,
    weighted by which component each came from: (1-e)^2, e(1-e), e(1-e),
    e^2. triple holds rho_5..rho_12, the two differences sharing one
    observation out of three, with their multiplicities.
    """
    rho, eps = params.rho, params.epsilon
    lx, ly, rp = params.lambda_x, params.lambda_y, params.rho_prime
    cx = math.sqrt(1 + lx * lx)
    cy = math.sqrt(1 + ly * ly)
    r2 = math.sqrt(2)

    rho1 = rho
    rho2 = (rho + lx * ly * rp) / (cx * cy)
    rho3 = rho2
    rho4 = rp
    pair = (rho1, rho2, rho3, rho4)
    eb = 1 - eps
    pair_w = (eb * eb, eps * eb, eps * eb, eps * eps)

    rho5 = rho / 2
    rho6 = rho / (r2 * cy)
    rho7 = rho / (r2 * cx)
    rho8 = lx * ly * rp / (cx * cy)
    rho9 = rho / (cx * cy)
    rho10 = lx * rp / (r2 * cx)
    rho11 = ly * rp / (r2 * cy)
    rho12 = rp / 2
    triple = (rho5, rho6, rho7, rho8, rho9, rho10, rho11, rho12)
    triple_w = (eb ** 3,
                eps * eb * eb, eps * eb * eb, eps * eb * eb,
                eps * eps * eb, eps * eps * eb, eps * eps * eb,
                eps ** 3)
    return tuple(zip(pair, pair_w)), tuple(zip(triple, triple_w))
