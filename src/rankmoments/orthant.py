"""Positive orthant probabilities of zero-mean multivariate normal vectors
in dimensions 2-4.

The quadrivariate case is reduced to three 1-D arcsine integrals, evaluated
by adaptive Gauss-Kronrod quadrature in lock-step over a stack of
matrices. Near-singular correlation matrices (needed at the correlation-one
anchor points) are handled by a sine substitution that removes the
endpoint singularity and by guarded evaluation of the arcsine argument.
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

    @classmethod
    def from_upper(cls, r12, r13, r14, r23, r24, r34) -> "CorrelationMatrix4":
        m = np.array([
            [1.0, r12, r13, r14],
            [r12, 1.0, r23, r24],
            [r13, r23, 1.0, r34],
            [r14, r24, r34, 1.0],
        ])
        return cls(rho=m)


def orthant_p2(rho12: float) -> float:
    """P(Z1 > 0, Z2 > 0) for a standard bivariate normal pair."""
    if abs(rho12) > 1 + CLAMP_EPS:
        raise DomainError(f"|rho12| = {abs(rho12)} exceeds 1")
    r = min(1.0, max(-1.0, rho12))
    return 0.25 * (1 + 2 / math.pi * math.asin(r))


def orthant_p3(rho12: float, rho13: float, rho23: float) -> float:
    """Trivariate positive orthant probability (closed form)."""
    m = np.array([[1, rho12, rho13], [rho12, 1, rho23], [rho13, rho23, 1.0]])
    if np.linalg.eigvalsh(m).min() < _PSD_TOL:
        raise DomainError("3x3 correlation matrix is not positive semidefinite")
    s = sum(math.asin(min(1.0, max(-1.0, v))) for v in (rho12, rho13, rho23))
    return 0.125 * (1 + 2 / math.pi * s)


def _abg_coeffs(r: np.ndarray, ell: int):
    """Polynomial coefficients of alpha/beta/gamma in u^2 for leg ell in {1,2,3}
    (0-based index of the partner variable). r is one 4x4 matrix, or a
    (4, 4, M) stack that gives arrays of M coefficients."""
    r12, r13, r14 = r[0, 1], r[0, 2], r[0, 3]
    r23, r24, r34 = r[1, 2], r[1, 3], r[2, 3]
    if ell == 1:
        a0 = r34 - r23 * r24
        a2 = r13 * r14 + r12 * (r12 * r34 - r14 * r23 - r13 * r24)
        b0, b2 = 1 - r23 ** 2, r12 ** 2 + r13 ** 2 - 2 * r12 * r13 * r23
        g0, g2 = 1 - r24 ** 2, r12 ** 2 + r14 ** 2 - 2 * r12 * r14 * r24
    elif ell == 2:
        a0 = r24 - r23 * r34
        a2 = r12 * r14 + r13 * (r13 * r24 - r14 * r23 - r12 * r34)
        b0, b2 = 1 - r23 ** 2, r12 ** 2 + r13 ** 2 - 2 * r12 * r13 * r23
        g0, g2 = 1 - r34 ** 2, r13 ** 2 + r14 ** 2 - 2 * r13 * r14 * r34
    else:
        a0 = r23 - r24 * r34
        a2 = r12 * r13 + r14 * (r14 * r23 - r13 * r24 - r12 * r34)
        b0, b2 = 1 - r24 ** 2, r12 ** 2 + r14 ** 2 - 2 * r12 * r14 * r24
        g0, g2 = 1 - r34 ** 2, r13 ** 2 + r14 ** 2 - 2 * r13 * r14 * r34
    return a0, a2, b0, b2, g0, g2


def _arcsine_ratio(u2: np.ndarray, coeffs) -> np.ndarray:
    """arcsin(alpha / (beta*gamma)) with degenerate-limit guards.

    Each coefficient broadcasts against u2, e.g. as a (K, 1) column for
    the K rows of a lock-step integrand.
    """
    a0, a2, b0, b2, g0, g2 = coeffs
    alpha = a0 - a2 * u2
    beta2 = np.maximum(b0 - b2 * u2, 0.0)
    gamma2 = np.maximum(g0 - g2 * u2, 0.0)
    bg = np.sqrt(beta2 * gamma2)
    out = np.empty_like(alpha)
    tiny = bg < _BG_FLOOR
    if tiny.any():
        # 0/0 limit at a degenerate matrix; approach along decreasing u
        for i in zip(*np.nonzero(tiny)):
            if abs(alpha[i]) < _BG_FLOOR:
                out[i] = _ratio_limit(u2[i], [np.broadcast_to(c, u2.shape)[i]
                                              for c in coeffs])
            else:
                raise DomainError("arcsine argument diverges: beta*gamma -> 0 "
                                  "with nonvanishing alpha")
    ok = ~tiny
    ratio = np.zeros_like(alpha)
    np.divide(alpha, bg, out=ratio, where=ok)
    over = ok & (np.abs(ratio) > 1)
    if over.any():
        if np.abs(ratio[over]).max() > 1 + CLAMP_EPS:
            raise DomainError("arcsine argument exceeds 1 beyond the clamp margin")
        ratio[over] = np.sign(ratio[over])
    out[ok] = np.arcsin(ratio[ok])
    return out


def _ratio_limit(u2: float, coeffs) -> float:
    """One-sided limit of arcsin(alpha/(beta*gamma)) by step halving in u."""
    a0, a2, b0, b2, g0, g2 = coeffs
    u = math.sqrt(max(u2, 0.0))
    h = max(1e-4, 1e-4 * u)
    prev = None
    for _ in range(40):
        uu = max(u - h, 0.0)
        v2 = uu * uu
        alpha = a0 - a2 * v2
        bg = math.sqrt(max(b0 - b2 * v2, 0.0) * max(g0 - g2 * v2, 0.0))
        if bg >= _BG_FLOOR:
            ratio = min(1.0, max(-1.0, alpha / bg))
            val = math.asin(ratio)
            if prev is not None and abs(val - prev) < 1e-12:
                return val
            prev = val
        h *= 0.5
    return prev if prev is not None else 0.0


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
    return sum(math.asin(min(1.0, max(-1.0, m[i, j])))
               for i in range(3) for j in range(i + 1, 4))


def _p4_from_w(m: np.ndarray, w: float) -> float:
    """Orthant probability of a checked 4x4 matrix from its coupling term."""
    p = (1 + 2 / math.pi * _arcsin_sum(m) + w) / 16
    return float(min(1.0, max(0.0, p)))


def orthant_p4(r: CorrelationMatrix4) -> float:
    """Quadrivariate positive orthant probability."""
    return _p4_from_w(r.rho, w_integral(r.rho[None])[0])


def w_from_p4(p4: float, r: CorrelationMatrix4) -> float:
    """Recover the coupling term from an orthant probability."""
    return 16 * p4 - 1 - 2 / math.pi * _arcsin_sum(r.rho)
