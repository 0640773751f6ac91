"""Estimators of the population correlation built from the three sample
coefficients, with their approximate biases, variances, and asymptotic
relative efficiencies.
"""

from __future__ import annotations

import enum
import math

from .binormal import (cov_rs_rk_exact, lemma2_moments, omegas,
                       var_rs_exact)
from .errors import DomainError, SizeError


class EstimatorKind(enum.Enum):
    PEARSON = "pearson"
    SPEARMAN = "spearman"
    KENDALL = "kendall"
    MIXED = "mixed"


def estimate_from_coefficients(kind: EstimatorKind, r_p: float | None = None,
                               r_s: float | None = None,
                               r_k: float | None = None,
                               n: int | None = None) -> float:
    """Map observed coefficients to a correlation estimate, clamped to [-1, 1]."""
    if kind is EstimatorKind.PEARSON:
        if r_p is None:
            raise DomainError("pearson estimator needs r_p")
        val = r_p
    elif kind is EstimatorKind.SPEARMAN:
        if r_s is None:
            raise DomainError("spearman estimator needs r_s")
        val = 2 * math.sin(math.pi * r_s / 6)
    elif kind is EstimatorKind.KENDALL:
        if r_k is None:
            raise DomainError("kendall estimator needs r_k")
        val = math.sin(math.pi * r_k / 2)
    else:
        if r_s is None or r_k is None:
            raise DomainError("mixed estimator needs r_s and r_k")
        if n is None or n <= 2:
            raise SizeError("mixed estimator requires n > 2")
        val = 2 * math.sin(math.pi * r_s / 6
                           - math.pi / 2 * (r_k - r_s) / (n - 2))
    return min(1.0, max(-1.0, val))


def _sigma2_s(rho: float, n: int) -> float:
    # n * var(r_S), from the exact finite-n variance
    return n * var_rs_exact(rho, n)


def _sigma2_k(rho: float, n: int) -> float:
    # n * var(r_K), from the exact finite-n variance
    return n * lemma2_moments(rho, n)["var_rk"]


def _sigma_sk(rho: float, n: int) -> float:
    # n * cov(r_S, r_K), from the exact finite-n covariance
    return n * cov_rs_rk_exact(rho, n)


def _mixed_form(rho: float, n: int) -> float:
    # (n+1)^2 sigma_S^2 - 6(n+1) sigma_SK + 9 sigma_K^2, the quadratic form
    # in the mixed estimator's bias and variance
    sig2_s = _sigma2_s(rho, n)
    sig2_k = _sigma2_k(rho, n)
    sig_sk = _sigma_sk(rho, n)
    return (n + 1) ** 2 * sig2_s - 6 * (n + 1) * sig_sk + 9 * sig2_k


def bias_theoretical(kind: EstimatorKind, rho: float, n: int) -> float:
    """Leading-order bias of the estimator at (rho, n)."""
    _check_args(rho, n, kind)
    s1 = math.asin(rho)
    s2 = math.asin(rho / 2)
    pi2 = math.pi ** 2
    if kind is EstimatorKind.PEARSON:
        return -rho * (1 - rho * rho) / (2 * n)
    if kind is EstimatorKind.SPEARMAN:
        sig2_s = _sigma2_s(rho, n)
        return (math.sqrt(4 - rho * rho) * (s1 - 3 * s2) / (n + 1)
                - pi2 * rho * sig2_s / (72 * n))
    if kind is EstimatorKind.KENDALL:
        sig2_k = _sigma2_k(rho, n)
        return -pi2 * rho * sig2_k / (8 * n)
    return -(pi2 * rho / (72 * n * (n - 2) ** 2)) * _mixed_form(rho, n)


def variance_theoretical(kind: EstimatorKind, rho: float, n: int) -> float:
    """Leading-order variance of the estimator at (rho, n)."""
    _check_args(rho, n, kind)
    pi2 = math.pi ** 2
    if kind is EstimatorKind.PEARSON:
        return (1 - rho * rho) ** 2 / (n - 1)
    if kind is EstimatorKind.SPEARMAN:
        return pi2 * (4 - rho * rho) / 36 * var_rs_exact(rho, n)
    if kind is EstimatorKind.KENDALL:
        var_rk = lemma2_moments(rho, n)["var_rk"]
        return pi2 * (1 - rho * rho) / 4 * var_rk
    return (pi2 * (4 - rho * rho) / (36 * n * (n - 2) ** 2)) * _mixed_form(
        rho, n)


def crlb(rho: float, n: int) -> float:
    """Information bound for estimating rho from n bivariate normal pairs."""
    if n < 1:
        raise DomainError("need n >= 1")
    if not abs(rho) <= 1:
        raise DomainError(f"|rho| must be <= 1, got {rho}")
    return (1 - rho * rho) ** 2 / n


# closed forms of the efficiencies at the boundary
_ARE_S_AT_1 = (15 + 11 * math.sqrt(5)) / 57
_ARE_K_AT_1 = 3 * math.sqrt(3) / (2 * math.pi)


def are(kind: EstimatorKind, rho: float) -> float:
    """Asymptotic efficiency relative to the information bound."""
    if not abs(rho) <= 1:
        raise DomainError(f"|rho| must be <= 1, got {rho}")
    if kind is EstimatorKind.PEARSON:
        return 1.0
    if kind is EstimatorKind.KENDALL:
        if abs(rho) == 1.0:
            return _ARE_K_AT_1
        s2 = math.asin(rho / 2)
        return 9 * (1 - rho * rho) / (math.pi ** 2 - 36 * s2 * s2)
    # the rank-based and mixed estimators share the same limit
    if abs(rho) == 1.0:
        return _ARE_S_AT_1
    s2 = math.asin(rho / 2)
    om1 = omegas(rho).omega1
    denom = (4 - rho * rho) * (9 * math.pi ** 2 * om1 - 324 * s2 * s2)
    return 36 * (1 - rho * rho) ** 2 / denom


def _check_args(rho: float, n: int, kind: EstimatorKind):
    if not abs(rho) <= 1:
        raise DomainError(f"|rho| must be <= 1, got {rho}")
    if kind is EstimatorKind.MIXED and n <= 2:
        raise SizeError("mixed estimator requires n > 2")
    if n < 4:
        raise DomainError("need n >= 4")
