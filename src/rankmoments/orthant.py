"""Positive orthant probabilities of zero-mean multivariate normal vectors
in dimensions 2-4.

The quadrivariate case is reduced (Childs 1967) to three 1-D arcsine
integrals on [0, 1], one leg per partner variable of Z1, all from one
coefficient formula and evaluated by adaptive Gauss-Kronrod quadrature in
lock-step over a stack of matrices. A matrix with an exactly coincident
pair, |r_ab| >= 1 so that Z_b = +-Z_a, gets no legs: its orthant is the
trivariate one of the other three variables, or empty for an opposed
pair. Where a leg's partner nearly coincides with another variable its
arcsine argument is 0/0 and is taken as 0. Every arcsine argument, scalar
or array, passes one clamp that forgives CLAMP_EPS of roundoff beyond 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError
from .quadrature import ABS_TOL, CLAMP_EPS, Family, integrate_families

_PSD_TOL = -1e-10
_BG_FLOOR = 1e-14


def _psd_within_tol(m: np.ndarray) -> bool:
    """Whether the smallest eigenvalue of the symmetric 3x3 or 4x4 m (read
    from its lower triangle) is at least _PSD_TOL.

    By Sylvester's criterion that holds exactly when every principal minor
    of m - _PSD_TOL*I is >= 0: the diagonal, three or six 2x2, one or four
    3x3, and for a 4x4 the determinant, by Laplace expansion along its
    first two rows. The minors are taken on exact integers, the shifted
    entries times their common power-of-two denominator. A singular
    matrix's shifted minors can be as small as 1e-30, below the roundoff
    of a floating-point determinant, so no float formula would do.
    """
    k = len(m)
    if not np.isfinite(m).all():
        return False
    rows = m.tolist()
    lower = [(i, j, *rows[i][j].as_integer_ratio())
             for i in range(k) for j in range(i + 1)]
    tol_num, tol_den = _PSD_TOL.as_integer_ratio()
    # every denominator is a power of two, so the largest is common to all
    scale = max(tol_den, *(den for *_, den in lower))
    a = [[0] * k for _ in range(k)]
    for i, j, num, den in lower:
        a[i][j] = a[j][i] = (num * (scale // den)
                             - (i == j) * tol_num * (scale // tol_den))

    def c2(r0, r1, c0, c1):
        return a[r0][c0] * a[r1][c1] - a[r0][c1] * a[r1][c0]

    minors = [a[i][i] for i in range(k)]
    minors += [c2(i, j, i, j) for i, j in combinations(range(k), 2)]
    minors += [a[i][i] * c2(j, l, j, l) - a[i][j] * c2(j, l, i, l)
               + a[i][l] * c2(j, l, i, j)
               for i, j, l in combinations(range(k), 3)]
    if k == 4:
        minors.append(c2(0, 1, 0, 1) * c2(2, 3, 2, 3)
                      - c2(0, 1, 0, 2) * c2(2, 3, 1, 3)
                      + c2(0, 1, 0, 3) * c2(2, 3, 1, 2)
                      + c2(0, 1, 1, 2) * c2(2, 3, 0, 3)
                      - c2(0, 1, 1, 3) * c2(2, 3, 0, 2)
                      + c2(0, 1, 2, 3) * c2(2, 3, 0, 1))
    return min(minors) >= 0


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
        if not _psd_within_tol(r):
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
    if not _psd_within_tol(m):
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


def _asin_ratio(num, den2):
    """arcsin(num / sqrt(den2)) for arrays of one shape, den2 clipped at 0.
    Where the root falls below _BG_FLOOR (a degenerate matrix) num must
    too, and the 0/0 ratio is taken as 0; a nonvanishing num over a
    vanishing root is a DomainError."""
    den = np.sqrt(np.maximum(den2, 0.0))
    ok = den >= _BG_FLOOR
    if (~ok & (np.abs(num) >= _BG_FLOOR)).any():
        raise DomainError("arcsine argument diverges: vanishing denominator "
                          "with nonvanishing numerator")
    ratio = np.zeros_like(num)
    np.divide(num, den, out=ratio, where=ok)
    return np.arcsin(_clamp_unit(ratio))


def _arcsine_ratio(u2: np.ndarray, coeffs) -> np.ndarray:
    """arcsin(alpha / (beta*gamma)), each coefficient broadcasting against
    u2, e.g. as a (K, 1) column for the K rows of a lock-step integrand."""
    a0, a2, b0, b2, g0, g2 = coeffs
    beta2 = np.maximum(b0 - b2 * u2, 0.0)
    gamma2 = np.maximum(g0 - g2 * u2, 0.0)
    return _asin_ratio(a0 - a2 * u2, beta2 * gamma2)


def _plain_leg(u, r1l, *coeffs):
    u2 = u * u
    denom = np.sqrt(1 - r1l * r1l * u2)
    return r1l / denom * _arcsine_ratio(u2, coeffs)


def _coincident_w(m: np.ndarray) -> float:
    """Coupling term of a 4x4 matrix whose first pair a < b with
    |r_ab| >= 1 has Z_b = +-Z_a: P4 is 0 for an opposed pair, otherwise
    the P3 of the three variables left after dropping b."""
    a, b = next((a, b) for a in range(3) for b in range(a + 1, 4)
                if abs(m[a, b]) >= 1)
    i, j, k = (c for c in range(4) if c != b)
    p4 = orthant_p3(m[i, j], m[i, k], m[j, k]) if m[a, b] > 0 else 0.0
    return 16 * p4 - 1 - 2 / math.pi * _arcsin_sum(m)


def w_legs(ms: np.ndarray):
    """The 1-D arcsine integrals whose sums are the coupling terms of a
    (M, 4, 4) stack of correlation matrices that the caller has already
    checked.

    A matrix with an exactly coincident pair (some off-diagonal
    |r_ab| >= 1) takes its W in closed form and has no legs. Every other
    W is a sum of up to three legs on [0, 1], one per nonzero r_1l.
    Returns the one family of legs and the map from its values to the M
    coupling terms; each W sums its legs in leg order.
    """
    i, j = np.triu_indices(4, 1)
    coincident = (np.abs(ms[:, i, j]) >= 1).any(axis=1)
    closed = np.flatnonzero(coincident)
    closed_w = [_coincident_w(ms[k]) for k in closed]
    # one row per leg of the other matrices, matrix-major then by ell:
    # owner, r_1l, coefficients
    r = np.moveaxis(ms[~coincident], 0, -1)
    table = np.stack([np.stack([np.flatnonzero(~coincident), r[0, ell],
                                *_abg_coeffs(r, ell)], axis=-1)
                      for ell in (1, 2, 3)], axis=1).reshape(-1, 8)
    table = table[table[:, 1] != 0.0]
    owner = table[:, 0].astype(int)
    family = Family(_plain_leg, np.zeros(len(table)), np.ones(len(table)),
                    ABS_TOL / 3, tuple(table[:, 1:].T))

    def fold(values: np.ndarray) -> np.ndarray:
        totals = np.zeros(len(ms))
        # unbuffered, in leg order: each W adds its legs left to right
        np.add.at(totals, owner, 4 / math.pi ** 2 * values)
        totals[closed] = closed_w
        return totals

    return family, fold


def w_integral(ms: np.ndarray) -> np.ndarray:
    """Quadrivariate coupling terms of a (M, 4, 4) stack of correlation
    matrices that the caller has already checked, from one lock-step run
    over all their legs."""
    family, fold = w_legs(ms)
    return fold(*integrate_families([family]))


def _arcsin_sum(m: np.ndarray) -> float:
    return sum(asin_clamped(m[i, j]) for i in range(3) for j in range(i + 1, 4))


def _p4_from_w(m: np.ndarray, w: float) -> float:
    """Orthant probability of a checked 4x4 matrix from its coupling term."""
    p = (1 + 2 / math.pi * _arcsin_sum(m) + w) / 16
    return float(min(1.0, max(0.0, p)))


def orthant_p4(r: CorrelationMatrix4) -> float:
    """Quadrivariate positive orthant probability."""
    return _p4_from_w(r.rho, w_integral(r.rho[None])[0])
