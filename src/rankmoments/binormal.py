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
same + rho * cross. On first use the pairs are checked as correlation
matrices at rho = -1 and rho = 1, which covers every |rho| <= 1, then
against exact anchor values at rho = 0 and rho = 1 and against four
internal W-identities; failure raises DerivationError. Each omegas pass
checks omega3 = W_g / 2 + W_h against 1/18 + I, I the integral along rho
of its Plackett (1954) derivative; omega4 = pi^2 / 2 * I. Childs's (1967)
legs of W are the same identity along Z1's row from W = 0, from the same
orthant._plackett_coeffs. The check stays independent: the routes use
disjoint halves of its cubic numerator (d0, d2 on Z1's row, d1, d3 on
rho), and the variances b, g they share are pinned by the anchors above
and by the tests' QUADPACK omega4 oracle.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (CrossCheckError, DerivationError, DomainError,
                     NegativeVarianceError)
from .orthant import (CorrelationMatrix4, _p4_from_w, _plackett_asin,
                      _plackett_coeffs, w_integral, w_legs)
from .quadrature import ABS_TOL, Family, integrate_families

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

# exact anchors: positive-orthant probability at rho=0, W value at rho=1
_ANCHORS_P4_RHO0 = {
    "c": Fraction(1, 9), "d": Fraction(1, 24), "f": Fraction(1, 16),
    "g": Fraction(1, 9), "h": Fraction(1, 24), "l": Fraction(1, 18),
    "n": Fraction(1, 36), "o": Fraction(1, 16),
}
_ANCHORS_W_RHO1 = {
    "c": Fraction(1, 5), "d": Fraction(1, 15), "f": Fraction(2, 15),
    "g": Fraction(1, 3), "h": Fraction(1, 3), "l": Fraction(0),
    "m": Fraction(1, 3), "n": Fraction(0), "o": Fraction(1, 3),
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

_validation_done = False
_validation_lock = threading.Lock()


def _validate_patterns():
    """Endpoint checks of same -/+ cross, anchor checks at rho = 0 and
    rho = 1, plus the W-identities.

    The rho at which an affine matrix is a valid correlation matrix form a
    convex set, so passing at rho = -1 and rho = 1 covers every |rho| <= 1.
    """
    for same, cross in _PATTERNS.values():
        CorrelationMatrix4(same - cross)
        CorrelationMatrix4(same + cross)
    tol = 1e-9
    for rho, anchors, kind in ((0.0, _ANCHORS_P4_RHO0, "P4"),
                               (1.0, _ANCHORS_W_RHO1, "W")):
        mats = {label: same + rho * cross
                for label, (same, cross) in _PATTERNS.items()}
        w = dict(zip(mats, w_integral(np.stack(list(mats.values()))).tolist()))
        for label, anchor in anchors.items():
            got = _p4_from_w(mats[label], w[label]) if kind == "P4" \
                else w[label]
            if abs(got - float(anchor)) > tol:
                raise DerivationError(
                    f"pattern {label} fails its rho={rho} anchor: "
                    f"{kind}={got!r}, expected {float(anchor)!r}")
        checks = (w["e"] - 2 * w["d"], w["g"] - w["p"], w["h"] - w["q"],
                  w["m"] - 2 * w["l"] - 1 / 3)
        if max(abs(v) for v in checks) > 1e-10:
            raise DerivationError(f"W-identities violated at rho={rho}: {checks}")


def _check_rho(rho):
    if not abs(rho) <= 1:
        raise DomainError(f"|rho| must be <= 1, got {rho}")


def _ensure_validated():
    """Validate the whole template set once per process; later calls skip
    the (expensive) validation."""
    global _validation_done
    with _validation_lock:
        if not _validation_done:
            _validate_patterns()
            _validation_done = True


def pattern_w(labels: str, rho: float) -> dict:
    """W terms at rho of the pattern matrices named by the letters of
    labels, from one lock-step w_integral run, keyed by letter."""
    _check_rho(rho)
    _ensure_validated()
    stack = np.stack([same + rho * cross
                      for same, cross in (_PATTERNS[c] for c in labels)])
    return dict(zip(labels, w_integral(stack).tolist()))


# ---------------------------------------------------------------------------
# Omega functions (memoized per rho).
# ---------------------------------------------------------------------------

_omega_cache: dict = {}
_omega_lock = threading.Lock()

_OMEGA_AT_1 = (1.0, 16 / 3, 0.5)

# the eight patterns the omegas read, as (8, 4, 4) same and cross stacks
_OMEGA_SAME, _OMEGA_CROSS = (
    np.stack(part) for part in zip(*(_PATTERNS[c] for c in "cdfghlno")))

# rho per lock-step pass: about 12 * 19 W legs plus 12 Plackett integrals
# keep a pass's arrays near 1 MB for a grid of any length
_RHOS_PER_PASS = 12

_ROUTE_TOL = 1e-9  # largest |omega3 - (1/18 + I)| a pass accepts


def _plackett_terms(weights: dict):
    """Terms of Plackett's (1954) d/drho of sum weight * W[label], 4/pi^2
    times the sum of coef * asin(r_kl.ij) / sqrt(1 - r_ij^2) over pairs i < j
    with cross_ij != 0, on each pattern's path same + rho * cross: coef,
    then the arrays of _plackett_coeffs, each of shape (T,)."""
    i, j = np.triu_indices(4, 1)
    parts = []
    for label, weight in weights.items():
        same, cross = _PATTERNS[label]
        on = cross[i, j] != 0.0
        c_ij, *coeffs = _plackett_coeffs(same, cross, i[on], j[on])
        parts.append((weight * c_ij, c_ij, *coeffs))
    return tuple(np.concatenate(column) for column in zip(*parts))


# omega3 = W_g / 2 + W_h
_OMEGA3_TERMS = _plackett_terms({"g": 0.5, "h": 1.0})


def _omega3_rate(theta):
    """d omega3 / d theta at rho = sin(theta), for an (R, m) array of nodes,
    from the terms of _OMEGA3_TERMS summed left to right, without BLAS."""
    coef, c_ij, *coeffs = _OMEGA3_TERMS
    sin, cos = np.sin(theta)[..., None], np.cos(theta)[..., None]
    # q = 1 - r_ij^2 (r_ij = c_ij sin): cos/sqrt(q) = 1 at |c_ij| = 1
    q = cos * cos + (1 - c_ij ** 2) * (sin * sin)
    terms = coef * _plackett_asin(sin, sin * sin, coeffs) / np.sqrt(q)
    total = np.add.accumulate(terms, axis=-1)[..., -1]
    return 4 / math.pi ** 2 * cos[..., 0] * total


def omegas(rho):
    """The three quadrature-valued moment ingredients plus the integral
    form, as OmegaValues at one rho, or as a list of them for a sequence
    of rho.

    Values are cached per rho. The rho not in the cache are computed
    _RHOS_PER_PASS at a time, each group in one lock-step pass over the
    Childs legs of its eight pattern matrices and one Plackett integral I
    of omega3 per rho, omega4 being pi^2 / 2 * I. Each integral keeps its
    own bisections, so a value does not depend on the rho it was computed
    with. Raises CrossCheckError if omega3 and 1/18 + I differ by more
    than _ROUTE_TOL.
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
    """{rho: OmegaValues} for distinct rho, from one integrate_families run."""
    _ensure_validated()
    inner = [r for r in rhos if abs(r) < 1]
    stack = _OMEGA_SAME + np.array(inner)[:, None, None, None] * _OMEGA_CROSS
    legs, fold = w_legs(stack.reshape(-1, 4, 4))
    # rho = sin(theta) on [0, asin(rho)], an empty interval at rho = 0
    uppers = np.array([math.copysign(math.asin(abs(r)), r) for r in rhos])
    values, rate = integrate_families([legs, Family(
        _omega3_rate, np.zeros(len(rhos)), uppers, 2 * ABS_TOL / math.pi ** 2)])
    w = dict(zip(inner, fold(values).reshape(-1, 8).tolist()))
    out = {}
    for r, integral in zip(rhos, rate.tolist()):
        # pattern matrices are exactly singular at |rho| = 1
        if abs(r) == 1.0:
            o1, o2, o3 = _OMEGA_AT_1
        else:
            c, d, f, g, h, l, n, o = w[r]
            o1 = c + 8 * d + 2 * f
            o2 = 6 * g + 8 * h + 6 * l + 2 * n + o + 1 / 3
            o3 = 0.5 * g + h
        if not abs(o3 - (1 / 18 + integral)) <= _ROUTE_TOL:
            raise CrossCheckError(
                f"omega3 cross-check failed at rho={r}: Childs {o3!r} vs "
                f"Plackett {1 / 18 + integral!r}")
        out[r] = OmegaValues(o1, o2, o3, math.pi ** 2 / 2 * integral)
    return out


# ---------------------------------------------------------------------------
# Closed-form moments.
# ---------------------------------------------------------------------------

def lemma2_moments(rho: float, n: int) -> dict:
    """Known closed-form moments of the three coefficients."""
    _check_rho(rho)
    if n < 2:
        raise DomainError("need n >= 2")
    s1, s2 = math.asin(rho), math.asin(rho / 2)
    pi2 = math.pi ** 2
    mean_rp = rho * (1 - (1 - rho * rho) / (2 * n))
    var_rp = (1 - rho * rho) ** 2 / (n - 1)
    mean_rs = 6 / (math.pi * (n + 1)) * (s1 + (n - 2) * s2)
    mean_rk = 2 / math.pi * s1
    var_rk = 2 / (n * (n - 1)) * (1 - 4 * s1 * s1 / pi2
                                  + 2 * (n - 2) * (1 / 9 - 4 * s2 * s2 / pi2))
    return {
        "mean_rp": mean_rp,
        "var_rp": var_rp,
        "mean_rs": mean_rs,
        "mean_rk": mean_rk,
        "var_rk": var_rk,
    }


def _clamp_variance(v: float, what: str) -> float:
    if v < _NEG_CLAMP:
        raise NegativeVarianceError(f"{what} evaluated to {v}; quadrature failure")
    return max(v, 0.0)


def var_rs_exact(rho: float, n: int) -> float:
    """Exact finite-n variance of the rank correlation."""
    if n < 4:
        raise DomainError("exact variance requires n >= 4")
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


def var_rs_asymptotic(rho: float, n: int) -> float:
    """Leading-order variance of the rank correlation."""
    if n < 1:
        raise DomainError("need n >= 1")
    om = omegas(rho)
    s2 = math.asin(rho / 2)
    v = (9 * om.omega1 - 324 * s2 * s2 / math.pi ** 2) / n
    return _clamp_variance(v, "asymptotic var(r_S)")


def cov_rs_rk_exact(rho: float, n: int) -> float:
    """Exact finite-n covariance between the two rank coefficients, from
    omega3; omegas checks omega3 against a second route."""
    if n < 4:
        raise DomainError("exact covariance requires n >= 4")
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
    if n < 1:
        raise DomainError("need n >= 1")
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
    if n < 1:
        raise DomainError("need n >= 1")
    acc = sum(c * rho ** (2 * k) for k, c in enumerate(_SERIES_COEFFS))
    return 2 / (3 * n) * acc
