"""Positive orthant probabilities of zero-mean multivariate normal vectors
in dimensions 2-4.

The quadrivariate case is reduced (Childs 1967) to three 1-D arcsine
integrals, one leg per partner variable of Z1, all from one coefficient
formula and evaluated by adaptive Gauss-Kronrod quadrature in lock-step
over a stack of matrices. Near-singular correlation matrices (needed at the
correlation-one anchor points) are handled by a sine substitution that
removes the endpoint singularity; where a leg's partner coincides with
another variable its arcsine argument is 0/0 and is taken as 0. Every
arcsine argument, scalar or array, passes one clamp that forgives
CLAMP_EPS of roundoff beyond 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import ABS_TOL, CLAMP_EPS, Family, integrate_families

_PSD_TOL = -1e-10
_SINGULAR_SWITCH = 1e-8  # use the sine substitution when |rho_1l| > 1 - this
_BG_FLOOR = 1e-14


@dataclass(frozen=True)
class CorrelationMatrix4:
    """Symmetric 4x4 unit-diagonal correlation matrix, PSD within tolerance."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", r)
        if r.shape != (4, 4):
            raise DomainError("correlation matrix must be 4x4")
        if not np.allclose(r, r.T, atol=1e-12):
            raise DomainError("correlation matrix must be symmetric")
        if not np.allclose(np.diag(r), 1.0, atol=1e-12):
            raise DomainError("correlation matrix must have unit diagonal")
        if np.abs(r).max() > 1 + 1e-12:
            raise DomainError("correlations must lie in [-1, 1]")
        if np.linalg.eigvalsh(r).min() < _PSD_TOL:
            raise DomainError("correlation matrix is not positive semidefinite")


def _clamp_unit(r):
    """r, a float or an array, clipped to [-1, 1]; |r| up to CLAMP_EPS
    beyond 1 is taken as roundoff, more is an error."""
    if not np.all(np.abs(r) <= 1 + CLAMP_EPS):
        raise DomainError(f"arcsine argument of magnitude {np.max(np.abs(r))} "
                          "exceeds 1")
    return np.clip(r, -1.0, 1.0)


def asin_clamped(r: float) -> float:
    """asin(r), with |r| up to CLAMP_EPS beyond 1 taken as roundoff."""
    return math.asin(_clamp_unit(r))


def orthant_p2(rho12: float) -> float:
    """P(Z1 > 0, Z2 > 0) for a standard bivariate normal pair."""
    return 0.25 + asin_clamped(rho12) / (2 * math.pi)


def orthant_p3(rho12: float, rho13: float, rho23: float) -> float:
    """Trivariate positive orthant probability (closed form)."""
    m = np.array([[1, rho12, rho13], [rho12, 1, rho23], [rho13, rho23, 1.0]])
    if np.linalg.eigvalsh(m).min() < _PSD_TOL:
        raise DomainError("3x3 correlation matrix is not positive semidefinite")
    s = sum(asin_clamped(v) for v in (rho12, rho13, rho23))
    return 0.125 * (1 + 2 / math.pi * s)


def _abg_coeffs(r: np.ndarray, ell: int):
    """Polynomial coefficients of alpha/beta/gamma in u^2 for leg ell in {1,2,3}
    (0-based index j of the partner variable, k < l the other two). r is one
    4x4 matrix, or a (4, 4, M) stack that gives arrays of M coefficients;
    only its upper triangle is read."""
    j = ell
    k, l = (i for i in (1, 2, 3) if i != j)
    r1j, r1k, r1l = r[0, j], r[0, k], r[0, l]
    rjk, rjl, rkl = r[min(j, k), max(j, k)], r[min(j, l), max(j, l)], r[k, l]
    a0 = rkl - rjk * rjl
    a2 = r1k * r1l + r1j * (r1j * rkl - r1l * rjk - r1k * rjl)
    b0, b2 = 1 - rjk ** 2, r1j ** 2 + r1k ** 2 - 2 * r1j * r1k * rjk
    g0, g2 = 1 - rjl ** 2, r1j ** 2 + r1l ** 2 - 2 * r1j * r1l * rjl
    return a0, a2, b0, b2, g0, g2


def _arcsine_ratio(u2: np.ndarray, coeffs) -> np.ndarray:
    """arcsin(alpha / (beta*gamma)), each coefficient broadcasting against
    u2, e.g. as a (K, 1) column for the K rows of a lock-step integrand.

    Where beta*gamma vanishes (a degenerate matrix whose partner variable
    coincides with another one) alpha must vanish too, and the 0/0 ratio
    is taken as 0.
    """
    a0, a2, b0, b2, g0, g2 = coeffs
    alpha = a0 - a2 * u2
    beta2 = np.maximum(b0 - b2 * u2, 0.0)
    gamma2 = np.maximum(g0 - g2 * u2, 0.0)
    bg = np.sqrt(beta2 * gamma2)
    ok = bg >= _BG_FLOOR
    if (~ok & (np.abs(alpha) >= _BG_FLOOR)).any():
        raise DomainError("arcsine argument diverges: beta*gamma -> 0 "
                          "with nonvanishing alpha")
    ratio = np.zeros_like(alpha)
    np.divide(alpha, bg, out=ratio, where=ok)
    return np.arcsin(_clamp_unit(ratio))


def _plain_leg(u, r1l, *coeffs):
    u2 = u * u
    denom = np.sqrt(1 - r1l * r1l * u2)
    return r1l / denom * _arcsine_ratio(u2, coeffs)


def _sine_leg(theta, r1l, *coeffs):
    # u = sin(theta) removes the inverse-square-root endpoint singularity
    # when |r1l| ~ 1
    u = np.sin(theta)
    u2 = u * u
    denom = np.sqrt(np.maximum(1 - r1l * r1l * u2, 1e-300))
    return r1l * np.cos(theta) / denom * _arcsine_ratio(u2, coeffs)


def w_legs(ms: np.ndarray):
    """The 1-D arcsine integrals whose sums are the coupling terms of a
    (M, 4, 4) stack of correlation matrices that the caller has already
    checked.

    Each W is a sum of up to three legs, one per nonzero r_1l. Returns two
    families, the legs with |r_1l| <= 1 - 1e-8 and the sine-substituted
    rest, and the map from their values to the M coupling terms; each W
    sums its legs in leg order.
    """
    # one row per leg, matrix-major then by ell: owner, r_1l, coefficients
    r = np.moveaxis(ms, 0, -1)
    table = np.stack([np.stack([np.arange(len(ms)), r[0, ell],
                                *_abg_coeffs(r, ell)], axis=-1)
                      for ell in (1, 2, 3)], axis=1).reshape(-1, 8)
    table = table[table[:, 1] != 0.0]
    singular = np.abs(table[:, 1]) > 1 - _SINGULAR_SWITCH
    families = []
    for mask, integrand, upper in ((~singular, _plain_leg, 1.0),
                                   (singular, _sine_leg, math.pi / 2)):
        params = tuple(table[mask, 1:].T)
        count = int(mask.sum())
        families.append(Family(integrand, np.zeros(count),
                               np.full(count, upper), ABS_TOL / 3, params))
    owner = table[:, 0].astype(int)

    def fold(plain: np.ndarray, sine: np.ndarray) -> np.ndarray:
        leg_values = np.empty(len(table))
        leg_values[~singular], leg_values[singular] = plain, sine
        totals = np.zeros(len(ms))
        # unbuffered, in leg order: each W adds its legs left to right
        np.add.at(totals, owner, 4 / math.pi ** 2 * leg_values)
        return totals

    return families, fold


def w_integral(ms: np.ndarray) -> np.ndarray:
    """Quadrivariate coupling terms of a (M, 4, 4) stack of correlation
    matrices that the caller has already checked, from one lock-step run
    over all their legs."""
    families, fold = w_legs(ms)
    return fold(*integrate_families(families))


def _arcsin_sum(m: np.ndarray) -> float:
    return sum(asin_clamped(m[i, j]) for i in range(3) for j in range(i + 1, 4))


def _p4_from_w(m: np.ndarray, w: float) -> float:
    """Orthant probability of a checked 4x4 matrix from its coupling term."""
    p = (1 + 2 / math.pi * _arcsin_sum(m) + w) / 16
    return float(min(1.0, max(0.0, p)))


def orthant_p4(r: CorrelationMatrix4) -> float:
    """Quadrivariate positive orthant probability."""
    return _p4_from_w(r.rho, w_integral(r.rho[None])[0])
