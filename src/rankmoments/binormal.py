"""Exact and asymptotic moments of the three correlation coefficients
under the bivariate normal model.

The non-elementary ingredients are the coupling terms W of twelve 4x4
correlation matrices. Those matrices are not hardcoded: each one is
derived from an index-sharing template of the two indicator triples that
arise when squaring (or cross-multiplying) the integer rank statistics,
using the covariance rule for differences of i.i.d. coordinates,

    cov(X_a - X_b, X_c - X_d) = d_ac - d_ad - d_bc + d_bd   (variance 2)
    cov(X_a - X_b, Y_c - Y_d) = rho * (d_ac - d_ad - d_bc + d_bd)

Each template is split once into (same, cross), the pattern matrix being
same + rho * cross. The templates are constants; the Tier-1 tests check
them: same -/+ cross as correlation matrices, which covers every
|rho| <= 1 since the rho at which an affine matrix is one form a convex
set, and the W of all twelve at rho = 0 and rho = 1 against exact anchor
values and four internal W-identities. Each omegas pass checks
omega3 = W_g / 2 + W_h against 1/18 + I, I the integral along rho of its
Plackett (1954) derivative; omega4 = pi^2 / 2 * I. Childs's (1967) legs
of W are the same identity along Z1's row from W = 0. Both are sums of
term rows of orthant._plackett_coeffs, integrated by one body,
orthant._plackett_term, in one lock-step run per pass of up to 24 rho,
some 600 rows, evaluated at most 4096 nodes at a time. The check stays
independent: the routes use disjoint halves of its cubic numerator
(d0, d2 on Z1's row, d1, d3 on rho), and the variances b, g and the
factor 1 / sqrt(1 - c^2 t^2) they share are pinned by the tests' anchors
and QUADPACK omega4 oracle.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckError, DomainError, NegativeVarianceError
from .orthant import (_plackett_coeffs, integrate_terms, leg_rows,
                      w_integral)
from .quadrature import ABS_TOL

_NEG_CLAMP = -1e-10


@dataclass(frozen=True)
class OmegaValues:
    omega1: float
    omega2: float
    omega3: float
    omega4: float


# ---------------------------------------------------------------------------
# Pattern matrices.
#
# Each Z is a standardized difference of one coordinate: ("x", a, b) means
# (X_a - X_b)/sqrt(2). A pattern is a quadruple (Z1, Z2, Z3, Z4) built from
# two indicator triples sharing some indices. The letters i,j,k,m,p,l are
# free index symbols; equal letters denote the same sample index.
# ---------------------------------------------------------------------------

_PATTERN_TEMPLATES = {
    # triple-triple products, one shared index (the five-index group)
    "c": (("x", "i", "j"), ("y", "i", "k"), ("x", "i", "m"), ("y", "i", "p")),
    "d": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "i"), ("y", "l", "p")),
    "e": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "j"), ("y", "l", "p")),
    "f": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "m"), ("y", "l", "j")),
    # triple-triple products, two shared indices (the four-index group)
    "g": (("x", "i", "j"), ("y", "i", "k"), ("x", "i", "m"), ("y", "i", "j")),
    "p": (("x", "i", "j"), ("y", "i", "k"), ("x", "i", "k"), ("y", "i", "p")),
    "l": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "i"), ("y", "l", "k")),
    "n": (("x", "i", "j"), ("y", "i", "k"), ("x", "j", "m"), ("y", "j", "i")),
    "m": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "j"), ("y", "l", "k")),
    "o": (("x", "i", "j"), ("y", "i", "k"), ("x", "l", "k"), ("y", "l", "j")),
    # pair-triple cross products, one shared index
    "h": (("x", "i", "j"), ("y", "i", "j"), ("x", "l", "i"), ("y", "l", "p")),
    "q": (("x", "i", "j"), ("y", "i", "j"), ("x", "l", "m"), ("y", "l", "i")),
}


def _split_template(template):
    """(same, cross) with pattern matrix = same + rho * cross."""
    same, cross = np.eye(4), np.zeros((4, 4))
    for r in range(4):
        for s in range(r + 1, 4):
            var_r, pr, mr = template[r]
            var_s, ps, ms = template[s]
            delta = ((pr == ps) - (pr == ms) - (mr == ps) + (mr == ms))
            part = same if var_r == var_s else cross
            part[r, s] = part[s, r] = delta / 2.0
    return same, cross


_PATTERNS = {label: _split_template(t)
             for label, t in _PATTERN_TEMPLATES.items()}

def _check_rho(rho):
    if not abs(rho) <= 1:
        raise DomainError(f"|rho| must be <= 1, got {rho}")


def pattern_w(labels: str, rho: float) -> dict:
    """W terms at rho of the pattern matrices named by the letters of
    labels, from one lock-step w_integral run, keyed by letter."""
    _check_rho(rho)
    stack = np.stack([same + rho * cross
                      for same, cross in (_PATTERNS[c] for c in labels)])
    return dict(zip(labels, w_integral(stack).tolist()))


# ---------------------------------------------------------------------------
# Omega functions (memoized per rho).
# ---------------------------------------------------------------------------

_omega_cache: dict = {}
_omega_lock = threading.Lock()

_OMEGA_AT_1 = (1.0, 16 / 3, 0.5, 2 * math.pi ** 2 / 9)

# the eight patterns the omegas read, as (8, 4, 4) same and cross stacks
_OMEGA_SAME, _OMEGA_CROSS = (
    np.stack(part) for part in zip(*(_PATTERNS[c] for c in "cdfghlno")))

# rho per lock-step pass: about 19 leg rows and 7 omega3 term rows per rho;
# integrate_terms' slices keep the integrand's temporaries small
_RHOS_PER_PASS = 24

_ROUTE_TOL = 1e-9  # largest |omega3 - (1/18 + I)| a pass accepts


def _plackett_terms(weights: dict):
    """Terms of Plackett's (1954) d/drho of sum weight * W[label], 4/pi^2
    times the sum of coef * asin(r_kl.ij) / sqrt(1 - r_ij^2) over pairs i < j
    with cross_ij != 0, on each pattern's path same + rho * cross, as the
    (10, T) terms of orthant.integrate_terms: coef = weight * c_ij, then
    the arrays of _plackett_coeffs."""
    i, j = np.triu_indices(4, 1)
    parts = []
    for label, weight in weights.items():
        same, cross = _PATTERNS[label]
        on = cross[i, j] != 0.0
        c_ij, *coeffs = _plackett_coeffs(same, cross, i[on], j[on])
        parts.append((weight * c_ij, c_ij, *coeffs))
    return np.concatenate(parts, axis=1)


# omega3 = W_g / 2 + W_h
_OMEGA3_TERMS = _plackett_terms({"g": 0.5, "h": 1.0})


def omegas(rho):
    """The three quadrature-valued moment ingredients plus the integral
    form, as OmegaValues at one rho, or as a list of them for a sequence
    of rho.

    Values are cached per rho. The rho not in the cache are computed
    _RHOS_PER_PASS at a time, each group in one lock-step pass over the
    Childs legs of its eight pattern matrices and the term rows of the
    Plackett integral I of omega3 per rho, omega4 being pi^2 / 2 * I; at
    |rho| = 1 all four are exact constants. Each row keeps its own
    bisections, so a value does not depend on the rho it was computed
    with. Raises CrossCheckError if omega3 and 1/18 + I differ by more
    than _ROUTE_TOL, and caches nothing of the failed pass.
    """
    single = isinstance(rho, numbers.Real)
    rhos = [rho] if single else list(rho)
    for r in rhos:
        _check_rho(r)
    with _omega_lock:
        found = {r: _omega_cache[r] for r in rhos if r in _omega_cache}
    missing = [r for r in dict.fromkeys(rhos) if r not in found]
    for start in range(0, len(missing), _RHOS_PER_PASS):
        computed = _omega_pass(missing[start:start + _RHOS_PER_PASS])
        with _omega_lock:
            _omega_cache.update(computed)
        found.update(computed)
    values = [found[r] for r in rhos]
    return values[0] if single else values


def _omega_pass(rhos: list) -> dict:
    """{rho: OmegaValues} for distinct rho, from one integrate_terms run
    over the legs of the eight pattern matrices and the omega3 term rows
    on [0, rho] of each |rho| < 1."""
    inner = [r for r in rhos if abs(r) < 1]
    k = len(inner)
    stack = (_OMEGA_SAME + np.array(inner)[:, None, None, None]
             * _OMEGA_CROSS).reshape(-1, 4, 4)
    legs, start = leg_rows(stack)
    # each rho's t omega3 rows add to one total after the W; their
    # tolerances sum to 2 ABS_TOL / pi^2 in I
    t, m = _OMEGA3_TERMS.shape[1], len(stack)
    omega3 = (np.tile(_OMEGA3_TERMS, k), np.repeat(inner, t),
              np.full(k * t, ABS_TOL / (2 * t)),
              np.repeat(np.arange(m, m + k), t))
    totals = integrate_terms(
        [np.concatenate(c, axis=-1) for c in zip(legs, omega3)],
        np.concatenate([start, np.zeros(k)]))
    out = {}
    for r, (c, d, f, g, h, l, n, o), integral in zip(
            inner, totals[:8 * k].reshape(-1, 8).tolist(),
            totals[m:].tolist()):
        o3 = 0.5 * g + h
        if not abs(o3 - (1 / 18 + integral)) <= _ROUTE_TOL:
            raise CrossCheckError(
                f"omega3 cross-check failed at rho={r}: Childs {o3!r} vs "
                f"Plackett {1 / 18 + integral!r}")
        out[r] = OmegaValues(c + 8 * d + 2 * f,
                             6 * g + 8 * h + 6 * l + 2 * n + o + 1 / 3, o3,
                             math.pi ** 2 / 2 * integral)
    # pattern matrices are exactly singular at |rho| = 1, and omega3's
    # rows with |c_ij| = 1 are infinite at the end of [0, rho]
    out.update((r, OmegaValues(*_OMEGA_AT_1)) for r in rhos if abs(r) == 1)
    return out


# ---------------------------------------------------------------------------
# Closed-form moments.
# ---------------------------------------------------------------------------

def _check_n(n: int, least: int, message: str):
    """DomainError for an n that is not an integer, DomainError(message)
    for n < least, and past 2**53 (n^4 overflows)."""
    if not isinstance(n, numbers.Integral):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n < least or n > 2 ** 53:
        raise DomainError(message if n < least
                          else f"n must be at most 2**53, got {n}")


def _mean_rs(a1: float, a2: float, n: int) -> float:
    """E[r_S] from a1 = asin(rho), a2 = asin(rho / 2), or mixture averages."""
    return 6 / (math.pi * (n + 1)) * (a1 + (n - 2) * a2)


def _mean_rk(a1: float) -> float:
    """E[r_K] from a1 = asin(rho), or its mixture average."""
    return 2 / math.pi * a1


def lemma2_moments(rho: float, n: int) -> dict:
    """Known closed-form moments of the three coefficients."""
    _check_rho(rho)
    _check_n(n, 2, "need n >= 2")
    s1, s2 = math.asin(rho), math.asin(rho / 2)
    pi2 = math.pi ** 2
    mean_rp = rho * (1 - (1 - rho * rho) / (2 * n))
    var_rp = (1 - rho * rho) ** 2 / (n - 1)
    var_rk = 2 / (n * (n - 1)) * (1 - 4 * s1 * s1 / pi2
                                  + 2 * (n - 2) * (1 / 9 - 4 * s2 * s2 / pi2))
    return {
        "mean_rp": mean_rp,
        "var_rp": var_rp,
        "mean_rs": _mean_rs(s1, s2, n),
        "mean_rk": _mean_rk(s1),
        "var_rk": var_rk,
    }


def _clamp_variance(v: float, what: str) -> float:
    if v < _NEG_CLAMP:
        raise NegativeVarianceError(f"{what} evaluated to {v}; quadrature failure")
    return max(v, 0.0)


def var_rs_exact(rho: float, n: int) -> float:
    """Exact finite-n variance of the rank correlation."""
    _check_n(n, 4, "exact variance requires n >= 4")
    om = omegas(rho)
    s1, s2 = math.asin(rho), math.asin(rho / 2)
    pi2 = math.pi ** 2
    v = (6 / (n * (n + 1))
         + 9 * (n - 2) * (n - 3) * ((n - 4) * om.omega1 + om.omega2)
         / (n * (n * n - 1) * (n + 1))
         - 36 / (pi2 * n * (n * n - 1) * (n + 1))
         * (3 * (n - 2) * (3 * n * n - 15 * n + 22) * s2 * s2
            + 12 * (n - 2) ** 2 * s1 * s2
            - 2 * (n - 3) * s1 * s1))
    return _clamp_variance(v, "var(r_S)")


def _pi2_n_var_rs_limit(rho: float) -> float:
    """pi^2 times the limit of n var(r_S), unclamped."""
    om1, s2 = omegas(rho).omega1, math.asin(rho / 2)
    return 9 * math.pi ** 2 * om1 - 324 * s2 * s2


def var_rs_asymptotic(rho: float, n: int) -> float:
    """Leading-order variance of the rank correlation."""
    _check_n(n, 1, "need n >= 1")
    v = _pi2_n_var_rs_limit(rho) / (math.pi ** 2 * n)
    return _clamp_variance(v, "asymptotic var(r_S)")


def cov_rs_rk_exact(rho: float, n: int) -> float:
    """Exact finite-n covariance between the two rank coefficients, from
    omega3; omegas checks omega3 against a second route."""
    _check_n(n, 4, "exact covariance requires n >= 4")
    om = omegas(rho)
    s1, s2 = math.asin(rho), math.asin(rho / 2)
    pi2 = math.pi ** 2
    return 12 / (n * (n * n - 1)) * (
        (7 * n - 5) / 18
        + (n - 4) * s1 * s1 / pi2
        - 5 * (n - 2) * s2 * s2 / pi2
        - 6 * (n - 2) ** 2 * s1 * s2 / pi2
        + (n - 2) * (n - 3) * om.omega3)


def cov_rs_rk_asymptotic(rho: float, n: int) -> float:
    """Leading-order covariance between the two rank coefficients."""
    _check_n(n, 1, "need n >= 1")
    om = omegas(rho)
    s1, s2 = math.asin(rho), math.asin(rho / 2)
    return 12 / n * (om.omega3 - 6 * s1 * s2 / math.pi ** 2)


_SERIES_COEFFS = (1.0, -1.24858961, 0.06830496, 0.07280482,
                  0.04025528, 0.02189277)


def cov_series_asymptotic(rho: float, n: int) -> float:
    """Even power series for the asymptotic covariance, through rho^10.

    Useful only for small |rho|; retained for cross-validation of the
    integral forms.
    """
    _check_n(n, 1, "need n >= 1")
    acc = sum(c * rho ** (2 * k) for k, c in enumerate(_SERIES_COEFFS))
    return 2 / (3 * n) * acc
