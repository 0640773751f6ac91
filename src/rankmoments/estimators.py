"""Estimators of the population correlation built from the three sample
coefficients, with their approximate biases, variances, and asymptotic
relative efficiencies.

Each rank-based estimator is c sin(a L) of a linear rank statistic L, one
delta-method body giving its bias and variance: (c, a, L) = (2, pi/6, r_S)
(Spearman), (1, pi/2, r_K) (Kendall), (2, pi/6, ((n+1) r_S - 3 r_K)/(n-2))
(mixed). Pearson's estimator and the Kendall efficiency keep closed forms.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .binormal import (_check_rho, _pi2_n_var_rs_limit, cov_rs_rk_exact,
                       lemma2_moments, var_rs_exact)
from .errors import DomainError, SizeError


class EstimatorKind(enum.Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"
    KENDALL = "kendall"
    MIXED = "mixed"


def estimates(r_p, r_s, r_k, n: int) -> dict:
    """The four estimates, clamped to [-1, 1] and keyed by EstimatorKind
    value, from coefficients given as floats or as arrays of one shape."""
    if n <= 2:
        raise SizeError("mixed estimator requires n > 2")
    arg = np.pi * r_s / 6 - np.pi / 2 * (r_k - r_s) / (n - 2)
    return {
        "pearson": np.clip(r_p, -1.0, 1.0),
        "spearman": np.clip(2 * np.sin(np.pi * r_s / 6), -1.0, 1.0),
        "kendall": np.clip(np.sin(np.pi * r_k / 2), -1.0, 1.0),
        "mixed": np.clip(2 * np.sin(arg), -1.0, 1.0),
    }


def _moments(kind: EstimatorKind, rho: float, n: int) -> tuple:
    """(bias, variance) to leading order. For c sin(a L) the delta method
    gives shift - a^2 rho var L / 2 and a^2 (c^2 - rho^2) var L, where
    shift = c sin(a E[L]) - rho is 0 but for Spearman."""
    _check_args(rho, n, kind)
    if kind is EstimatorKind.PEARSON:
        return (-rho * (1 - rho * rho) / (2 * n),
                lemma2_moments(rho, n)["var_rp"])
    c, a, shift = 2, math.pi / 6, 0.0
    if kind is EstimatorKind.KENDALL:
        c, a = 1, math.pi / 2
        var_l = lemma2_moments(rho, n)["var_rk"]
    elif kind is EstimatorKind.SPEARMAN:
        var_l = var_rs_exact(rho, n)
        shift = (math.sqrt(4 - rho * rho)
                 * (math.asin(rho) - 3 * math.asin(rho / 2)) / (n + 1))
    else:
        var_l = ((n + 1) ** 2 * var_rs_exact(rho, n)
                 - 6 * (n + 1) * cov_rs_rk_exact(rho, n)
                 + 9 * lemma2_moments(rho, n)["var_rk"]) / (n - 2) ** 2
    a2_var = a * a * var_l
    return shift - a2_var * rho / 2, a2_var * (c * c - rho * rho)


def bias_theoretical(kind: EstimatorKind, rho: float, n: int) -> float:
    """Leading-order bias of the estimator at (rho, n)."""
    return _moments(kind, rho, n)[0]


def variance_theoretical(kind: EstimatorKind, rho: float, n: int) -> float:
    """Leading-order variance of the estimator at (rho, n)."""
    return _moments(kind, rho, n)[1]


# closed forms of the efficiencies at the boundary
_ARE_S_AT_1 = (15 + 11 * math.sqrt(5)) / 57
_ARE_K_AT_1 = 3 * math.sqrt(3) / (2 * math.pi)


def are(kind: EstimatorKind, rho: float) -> float:
    """Asymptotic efficiency relative to the information bound."""
    _check_rho(rho)
    if kind is EstimatorKind.PEARSON:
        return 1.0
    if kind is EstimatorKind.KENDALL:
        if abs(rho) == 1.0:
            return _ARE_K_AT_1
        # 9 q / (pi^2 - 36 s^2) with pi/6 - s = asin(q / (sqrt(4 - r^2) +
        # sqrt(3) r)), which does not cancel as |rho| -> 1
        r = abs(rho)
        q, s = (1 - r) * (1 + r), math.asin(r / 2)
        return q / (4 * (math.pi / 6 + s)
                    * math.asin(q / (math.sqrt(4 - r * r) + math.sqrt(3) * r)))
    # the rank-based and mixed estimators share the same limit
    if abs(rho) == 1.0:
        return _ARE_S_AT_1
    denom = (4 - rho * rho) * _pi2_n_var_rs_limit(rho)
    return 36 * (1 - rho * rho) ** 2 / denom


def _check_args(rho: float, n: int, kind: EstimatorKind):
    _check_rho(rho)
    if kind is EstimatorKind.MIXED and n <= 2:
        raise SizeError("mixed estimator requires n > 2")
    if n < 4:
        raise DomainError("need n >= 4")
