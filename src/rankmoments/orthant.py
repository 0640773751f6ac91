"""Positive orthant probabilities of zero-mean multivariate normal vectors
in dimensions 3 and 4.

The quadrivariate case is reduced (Childs 1967) to three 1-D arcsine
integrals on [0, 1], one leg per partner Z_j of Z1: Plackett's (1954)
term of the pair (Z1, Z_j) on the path that scales Z1's row up from 0,
where W = 0. A leg is one term row of integrate_terms, the one body that
also integrates binormal's rows on its rho path; the rows of a run go in
lock-step adaptive Gauss-Kronrod quadrature. A matrix with an exactly
coincident pair, |r_ab| >= 1 so that Z_b = +-Z_a, gets no legs: its
orthant is the trivariate one of the other three variables, or empty for
an opposed pair. Where a leg's partner nearly coincides with another
variable its arcsine argument is 0/0 and is taken as 0. Every arcsine
argument, scalar or array, passes one clamp that forgives CLAMP_EPS of
roundoff beyond 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .quadrature import ABS_TOL, CLAMP_EPS, integrate_adaptive

_PSD_TOL = -1e-10
_BG_FLOOR = 1e-14
_SLICE_NODES = 4096  # most integrand nodes integrate_terms evaluates at once


def _psd_within_tol(m: np.ndarray) -> bool:
    """Whether the smallest eigenvalue of the symmetric 3x3 or 4x4 m (read
    from its lower triangle) exceeds _PSD_TOL.

    That holds exactly when m - _PSD_TOL*I is positive definite, that is
    (Sylvester) when the pivots of its fraction-free (Bareiss) elimination,
    its leading principal minors, are > 0. They are taken on exact
    integers, the shifted entries times their common power-of-two
    denominator: a singular matrix's shifted minors can be as small as
    1e-30, below the roundoff of any floating-point determinant.
    """
    k = len(m)
    if not np.isfinite(m).all():
        return False
    rows = m.tolist()
    lower = [[rows[max(i, j)][min(i, j)].as_integer_ratio() for j in range(k)]
             for i in range(k)]
    tol_num, tol_den = _PSD_TOL.as_integer_ratio()
    # every denominator is a power of two, so the largest is common to all
    scale = max(tol_den, *(den for row in lower for _, den in row))
    a = [[num * (scale // den) - (i == j) * tol_num * (scale // tol_den)
          for j, (num, den) in enumerate(row)] for i, row in enumerate(lower)]
    prev = 1
    for p in range(k):
        if a[p][p] <= 0:
            return False
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                # exact division (Sylvester's identity)
                a[i][j] = (a[i][j] * a[p][p] - a[i][p] * a[p][j]) // prev
        prev = a[p][p]
    return True


@dataclass(frozen=True)
class CorrelationMatrix4:
    """Symmetric 4x4 unit-diagonal correlation matrix, PSD within tolerance.
    The checks run in that order, and the first that fails raises
    DomainError with its reason."""

    rho: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", r)
        if r.shape != (4, 4):
            raise DomainError("correlation matrix must be 4x4")
        if not np.isclose(r, r.T, atol=1e-12).all():
            raise DomainError("correlation matrix must be symmetric")
        if not np.isclose(r.diagonal(), 1.0, atol=1e-12).all():
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


def orthant_p3(rho12: float, rho13: float, rho23: float) -> float:
    """Trivariate positive orthant probability (closed form)."""
    m = np.array([[1, rho12, rho13], [rho12, 1, rho23], [rho13, rho23, 1.0]])
    if not _psd_within_tol(m):
        raise DomainError("3x3 correlation matrix is not positive semidefinite")
    s = sum(asin_clamped(v) for v in (rho12, rho13, rho23))
    return 0.125 * (1 + 2 / math.pi * s)


def _plackett_coeffs(same, cross, i, j):
    """Plackett's (1954) term of the pair (i, j), indices or index arrays,
    on the path same + t * cross of 4x4 matrices or stacks (upper triangles
    read), k < l the other two: c_ij, the cubic d0 + d1 t + d2 t^2 + d3 t^3
    of (1 - r_ij^2) cov(Z_k, Z_l | Z_i, Z_j), and the quadratics
    b0 - b2 t^2, g0 - g2 t^2 of (1 - r_ij^2) var(Z_k | .), var(Z_l | .).
    The path must have r_ij = t c_ij and, of ik and jk as of il and jl, one
    entry in same and the other in cross, so that the variances are even in
    t; both paths the package uses do."""
    i, j = np.broadcast_arrays(i, j)
    k, l = np.array([[a for a in range(4) if a not in pair]
                     for pair in zip(i.flat, j.flat)]).T.reshape(2, *i.shape)
    pairs = ((i, j), (i, k), (i, l), (j, k), (j, l), (k, l))
    (_, s_ik, s_il, s_jk, s_jl, s_kl), (c_ij, c_ik, c_il, c_jk, c_jl, c_kl) = (
        [m[..., np.minimum(a, b), np.maximum(a, b)] for a, b in pairs]
        for m in (same, cross))
    # the operand order of d0, d2, b and g fixes the bits of every W
    d0 = s_kl - s_jk * s_jl - s_ik * s_il
    d1 = (c_kl - s_ik * c_il - c_ik * s_il - s_jk * c_jl - c_jk * s_jl
          + c_ij * (s_ik * s_jl + s_jk * s_il))
    d2 = -(c_ik * c_il + c_jk * c_jl + c_ij * (
        c_ij * s_kl - c_il * s_jk - c_ik * s_jl - c_jk * s_il - c_jl * s_ik))
    d3 = c_ij * (c_ik * c_jl + c_jk * c_il - c_ij * c_kl)
    b0, g0 = 1 - s_jk ** 2 - s_ik ** 2, 1 - s_jl ** 2 - s_il ** 2
    b2 = (c_ij ** 2 + c_ik ** 2 - 2 * c_ij * c_ik * s_jk
          + c_jk * (c_jk - 2 * c_ij * s_ik))
    g2 = (c_ij ** 2 + c_il ** 2 - 2 * c_ij * c_il * s_jl
          + c_jl * (c_jl - 2 * c_ij * s_il))
    return c_ij, d0, d1, d2, d3, b0, b2, g0, g2


def _asin_ratio(num, den2):
    """arcsin(num / sqrt(den2)) for arrays of one shape, den2 clipped at 0.
    Where the root falls below _BG_FLOOR (a degenerate matrix) num must
    too, and the 0/0 ratio is taken as 0; a nonvanishing num over a
    vanishing root is a DomainError."""
    den = np.sqrt(np.maximum(den2, 0.0))
    ok = den >= _BG_FLOOR
    if ok.all():
        return np.arcsin(_clamp_unit(num / den))
    if (~ok & (np.abs(num) >= _BG_FLOOR)).any():
        raise DomainError("arcsine argument diverges: vanishing denominator "
                          "with nonvanishing numerator")
    ratio = np.zeros_like(num)
    np.divide(num, den, out=ratio, where=ok)
    return np.arcsin(_clamp_unit(ratio))


def _plackett_asin(t, t2, coeffs):
    """arcsin(r_kl.ij) at t, t2 = t * t, from the coefficients that follow
    c_ij in _plackett_coeffs, each broadcasting against t, e.g. as a (K, 1)
    column for the K rows of a lock-step integrand."""
    d0, d1, d2, d3, b0, b2, g0, g2 = coeffs
    # one half of the cubic is zero on each path, so adding it is exact
    return _asin_ratio(d0 + d2 * t2 + t * (d1 + d3 * t2),
                       np.maximum(b0 - b2 * t2, 0.0)
                       * np.maximum(g0 - g2 * t2, 0.0))


def _plackett_term(u, coef, c, *coeffs):
    """coef * asin(r_kl.ij) / sqrt(1 - c^2 u^2) at the nodes u of a term
    row, from its columns after c_ij in _plackett_coeffs."""
    u2 = u * u
    return coef / np.sqrt(1 - c * c * u2) * _plackett_asin(u, u2, coeffs)


def integrate_terms(rows, totals: np.ndarray) -> np.ndarray:
    """Add 4/pi^2 times the integral of _plackett_term over [0, upper] of
    each term row to totals[owner], in row order, and return totals. rows
    is (terms, upper, tol, owner) for T rows, terms the (10, T) array of
    their coef, c_ij, d0, d1, d2, d3, b0, b2, g0 and g2; they run in one
    lock-step integrate_adaptive call, each to its own tolerance. The
    integrand runs in slices of whole rows of at most _SLICE_NODES nodes,
    so that its temporaries stay small however many rows run."""
    terms, upper, tol, owner = rows

    def f(nodes):
        x, at = nodes
        out = np.empty_like(x)
        step = max(1, _SLICE_NODES // x.shape[1])
        for s in range(0, len(x), step):
            part = slice(s, s + step)
            out[part] = _plackett_term(x[part], *terms[:, at[part], None])
        return out

    values = integrate_adaptive(f, np.zeros(len(owner)), upper, tol)
    # unbuffered, in row order
    np.add.at(totals, owner, 4 / math.pi ** 2 * values)
    return totals


def _coincident_w(m: np.ndarray) -> float:
    """Coupling term of a 4x4 matrix whose first pair a < b with
    |r_ab| >= 1 has Z_b = +-Z_a: P4 is 0 for an opposed pair, otherwise
    the P3 of the three variables left after dropping b."""
    a, b = next((a, b) for a in range(3) for b in range(a + 1, 4)
                if abs(m[a, b]) >= 1)
    i, j, k = (c for c in range(4) if c != b)
    p4 = orthant_p3(m[i, j], m[i, k], m[j, k]) if m[a, b] > 0 else 0.0
    return 16 * p4 - 1 - 2 / math.pi * _arcsin_sum(m)


def leg_rows(ms: np.ndarray):
    """Childs's legs of the coupling terms of a (M, 4, 4) stack of
    correlation matrices that the caller has already checked, as the rows
    of integrate_terms, and the (M,) totals they add to.

    A matrix with an exactly coincident pair (some off-diagonal
    |r_ab| >= 1) takes its W in closed form, its start total, and has no
    legs. Every other W starts at 0 and adds up to three legs on [0, 1],
    each to ABS_TOL / 3: the Plackett term of the pair (Z1, Z_l) with
    coef = c_ij = r_1l.
    """
    i, j = np.triu_indices(4, 1)
    coincident = (np.abs(ms[:, i, j]) >= 1).any(axis=1)
    start = np.zeros(len(ms))
    start[coincident] = [_coincident_w(m) for m in ms[coincident]]
    # Z1's row scaled up from 0, where W = 0, as same + t * cross
    row = (np.arange(4) == 0) != (np.arange(4) == 0)[:, None]
    r = ms[~coincident]
    coeffs = _plackett_coeffs(np.where(row, 0.0, r), np.where(row, r, 0.0),
                              0, np.arange(1, 4))
    # one leg per nonzero r_1l, matrix-major then by partner
    legs = coeffs[0] != 0.0
    owner = np.repeat(np.flatnonzero(~coincident), 3)[legs.ravel()]
    ones = np.ones(len(owner))
    return (np.stack((coeffs[0], *coeffs))[:, legs], ones,
            ABS_TOL / 3 * ones, owner), start


def w_integral(ms: np.ndarray) -> np.ndarray:
    """Quadrivariate coupling terms of a (M, 4, 4) stack of correlation
    matrices that the caller has already checked, from one lock-step run
    over all their legs."""
    return integrate_terms(*leg_rows(ms))


def _arcsin_sum(m: np.ndarray) -> float:
    return sum(asin_clamped(m[i, j]) for i in range(3) for j in range(i + 1, 4))


def _p4_from_w(m: np.ndarray, w: float) -> float:
    """Orthant probability of a checked 4x4 matrix from its coupling term."""
    p = (1 + 2 / math.pi * _arcsin_sum(m) + w) / 16
    return float(min(1.0, max(0.0, p)))


def orthant_p4(r: CorrelationMatrix4) -> float:
    """Quadrivariate positive orthant probability."""
    return _p4_from_w(r.rho, w_integral(r.rho[None])[0])
