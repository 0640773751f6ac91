"""Adaptive Gauss-Kronrod quadrature for smooth 1-D integrands.

A 7-point Gauss / 15-point Kronrod pair is applied per interval; the
interval with the largest error estimate is bisected until the summed
error estimate falls below the absolute tolerance. Many integrals (the
package's are the Plackett term rows of orthant.integrate_terms) run in
lock-step: each round bisects the worst panel of every unfinished
integral, evaluates the integrand once on the nodes of all the children,
and reduces every panel of the round in one fixed-order array expression.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConvergenceError

# QUADPACK dqk15 (Piessens et al. 1983) to 33 digits, rounded to double:
# Kronrod-15 abscissae on [-1, 1] from the outermost inward, the Kronrod
# weights, and the weights of the embedded Gauss-7 rule, whose nodes are
# the odd-indexed Kronrod nodes.
_XK = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144845693013, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144845693013, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
# the weights of the centre node and of the pairs, as _gk15 reduces them
_K_TERMS = np.concatenate([_WK[7:8], _WK[:7]])
_G_TERMS = np.concatenate([_WG[3:4], _WG[:3]])


# Accuracy used for every 1-D integral of the moment theory: total
# absolute error target, bisection budget per integral, and how far an
# arcsine argument may exceed 1 through roundoff before it is an error.
ABS_TOL = 1e-13
MAX_SUBDIVISIONS = 400
CLAMP_EPS = 1e-10

# panel columns added to an integrate_adaptive run's storage at a time
_PANEL_CHUNK = 8


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Kronrod nodes of the (R, p) panels [lo, hi], as an (R, 15 p) array."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return (mid[:, :, None] + half[:, :, None] * _XK).reshape(len(lo), -1)


def _gk15(fx: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Kronrod values and error estimates of the (R, p) panels [lo, hi]
    from their (R, p, 15) integrand values.

    Every panel is reduced in the same order: the centre term, then the
    seven symmetric pairs from the outermost node inward, each product
    rounded before it is added. add.accumulate sums strictly left to
    right, so a value depends neither on how many panels share the array
    nor on the CPU (no BLAS kernel, pairwise blocking or fused
    multiply-add is involved).
    """
    half = 0.5 * (hi - lo)
    # the centre value, then the pair sums; the Gauss terms are every other
    terms = np.concatenate([fx[..., 7:8], fx[..., :7] + fx[..., :7:-1]],
                           axis=-1)
    k = np.add.accumulate(terms * _K_TERMS, axis=-1)[..., -1]
    g = np.add.accumulate(terms[..., ::2] * _G_TERMS, axis=-1)[..., -1]
    k, g = half * k, half * g
    # standard QUADPACK-style rescaled error estimate
    err = np.abs(k - g)
    return k, np.minimum(err, (200.0 * err) ** 1.5)


def integrate_adaptive(
    f: Callable,
    a: np.ndarray,
    b: np.ndarray,
    abs_tol: np.ndarray,
) -> np.ndarray:
    """Integrate a vectorized integrand f over K intervals [a, b] to
    absolute tolerance, in lock-step, and return the K values.

    `a`, `b` and `abs_tol` are arrays of K interval ends and tolerances
    (or broadcast to them). f is called once per round with the pair
    (x, rows): x holds the nodes of the unfinished integrals only, an
    (R, m) array whose row r holds nodes of one integral, and rows the
    integral indices of x's rows in increasing order, so that f can tell
    the integrals apart. f returns the values in the shape of x.

    Each integral bisects its own worst panel (largest error estimate,
    then lowest first end) once per round until its own summed error
    estimate reaches its tolerance, exactly as it would alone. Panel
    storage grows _PANEL_CHUNK columns at a time, as the rounds actually
    run need them.

    Raises ConvergenceError, naming the interval, if an integral exhausts
    its budget of MAX_SUBDIVISIONS bisections (read at call time) before
    its summed error estimate reaches abs_tol.
    """
    a, b, tol = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (a, b, abs_tol)))
    values = np.zeros(len(a))

    def evaluate(rows, lo, hi):
        x = _nodes(lo, hi)
        fx = np.asarray(f((x, rows)), dtype=float).reshape(*lo.shape, len(_XK))
        return _gk15(fx, lo, hi)

    # per unfinished integral (one row each): its panels as (lo, hi, value,
    # error) in the first `used` columns of the storage, and its running
    # value, error estimate and tolerance
    rows = np.flatnonzero(a != b)
    if rows.size == 0:
        return values
    lo, hi = a[rows, None], b[rows, None]
    val, err = evaluate(rows, lo, hi)
    panels = np.empty((rows.size, _PANEL_CHUNK, 4))
    panels[:, :1] = np.stack([lo, hi, val, err], axis=-1)
    used = 1
    sums = np.stack([val[:, 0], err[:, 0], tol[rows]], axis=1)
    r = np.arange(rows.size)
    for subdivisions in range(MAX_SUBDIVISIONS + 1):
        done = sums[:, 1] <= sums[:, 2]
        if done.any():
            values[rows[done]] = sums[done, 0]
            keep = ~done
            rows, panels, sums = rows[keep], panels[keep], sums[keep]
            r = np.arange(rows.size)
        if rows.size == 0:
            return values
        if subdivisions == MAX_SUBDIVISIONS:
            break
        if used == panels.shape[1]:
            panels = np.concatenate(
                [panels, np.empty((rows.size, _PANEL_CHUNK, 4))], axis=1)
        # the heap order of a lone run: largest error, then lowest first end
        err = panels[:, :used, 3]
        worst = np.where(err == err.max(axis=1, keepdims=True),
                         panels[:, :used, 0], np.inf).argmin(axis=1)
        p_lo, p_hi, p_val, p_err = panels[r, worst].T
        mid = 0.5 * (p_lo + p_hi)
        # concatenates of [..., None] views: np.stack costs several times more
        ends = np.concatenate([p_lo[:, None], mid[:, None], p_hi[:, None]],
                              axis=1)
        lo, hi = ends[:, :2], ends[:, 1:]
        val, err = evaluate(rows, lo, hi)
        sums[:, 0] += val[:, 0] + val[:, 1] - p_val
        sums[:, 1] += err[:, 0] + err[:, 1] - p_err
        # the first child takes its parent's column, the second the next one
        children = np.concatenate(
            [lo[..., None], hi[..., None], val[..., None], err[..., None]],
            axis=-1)
        panels[r, worst] = children[:, 0]
        panels[:, used] = children[:, 1]
        used += 1
    k = rows[0]
    raise ConvergenceError(
        f"quadrature on [{a[k]}, {b[k]}] stalled at error {sums[0, 1]:.3e} "
        f"(target {tol[k]:.3e}) after {MAX_SUBDIVISIONS} subdivisions")
