"""Adaptive Gauss-Kronrod quadrature for smooth 1-D integrands.

A 7-point Gauss / 15-point Kronrod pair is applied per interval; the
interval with the largest error estimate is bisected until the summed
error estimate falls below the absolute tolerance. Several integrals can
run in lock-step, sharing one integrand call per round of bisections.
"""

from __future__ import annotations

import heapq
from typing import Callable

import numpy as np

from .errors import ConvergenceError

# Kronrod-15 abscissae on [-1, 1] and weights; the odd-indexed nodes form
# the embedded Gauss-7 rule.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


# Accuracy used for every 1-D integral of the moment theory: total
# absolute error target, bisection budget per integral, and how far an
# arcsine argument may exceed 1 through roundoff before it is an error.
ABS_TOL = 1e-13
MAX_SUBDIVISIONS = 400
CLAMP_EPS = 1e-10


def _nodes(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Kronrod nodes of the (K, p) panels [lo, hi], as a (K, 15 p) array."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return (mid[:, :, None] + half[:, :, None] * _XK).reshape(len(lo), -1)


def _panel(fx: np.ndarray, lo: float, hi: float):
    """Return (kronrod_value, error_estimate) from one panel's 15 values."""
    half = 0.5 * (hi - lo)
    k = half * float(np.dot(_WK, fx))
    g = half * float(np.dot(_WG, fx[1::2]))
    # standard QUADPACK-style rescaled error estimate
    err = abs(k - g)
    if err > 0:
        err = min(err, (200.0 * err) ** 1.5)
    return k, err


def _round(f, count: int, panels: dict) -> dict:
    """One lock-step round: evaluate the panels {k: [(lo, hi), ...]} of
    integrals k < count, equally many each, in one call of f, and return
    {k: [(value, error), ...]}."""
    width = len(next(iter(panels.values())))
    lo = np.full((count, width), np.nan)
    hi = np.full_like(lo, np.nan)
    ends = np.array(list(panels.values()))
    lo[list(panels)], hi[list(panels)] = ends[:, :, 0], ends[:, :, 1]
    fx = np.ascontiguousarray(f(_nodes(lo, hi)), dtype=float)
    fx = fx.reshape(count, width, len(_XK))
    return {k: [_panel(fx[k, j], *panel) for j, panel in enumerate(row)]
            for k, row in panels.items()}


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float | np.ndarray,
    b: float | np.ndarray,
    abs_tol: float,
    max_subdivisions: int = MAX_SUBDIVISIONS,
) -> float | np.ndarray:
    """Integrate a vectorized integrand f over [a, b] to absolute tolerance.

    `a` and `b` are floats, or arrays of K interval ends whose integrals
    run in lock-step. f receives a (K, m) array of nodes, row k belonging
    to integral k and NaN once that integral is done (or its interval is
    empty), and returns the values in the same shape. Each integral keeps
    its own max-error heap and bisects exactly as it would alone; in every
    round each unfinished integral bisects its worst panel, and the nodes
    of all the children go to one call of f. Float ends give a float,
    array ends an array of K values.

    Raises ConvergenceError, naming the interval, if an integral exhausts
    its subdivision budget before its summed error estimate reaches abs_tol.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    a, b = np.broadcast_arrays(np.atleast_1d(np.asarray(a, dtype=float)),
                               np.atleast_1d(np.asarray(b, dtype=float)))
    count = len(a)
    values = np.zeros(count)
    # per unfinished integral: max-heap of (-error, lo, hi, value), and the
    # summed value and error of its panels
    heaps, total_val, total_err = {}, {}, {}
    first = {k: [(float(lo), float(hi))]
             for k, (lo, hi) in enumerate(zip(a, b)) if lo != hi}
    if first:
        for k, [(val, err)] in _round(f, count, first).items():
            heaps[k] = [(-err, *first[k][0], val)]
            total_val[k], total_err[k] = val, err
    for subdivisions in range(max_subdivisions + 1):
        for k in [k for k in heaps if total_err[k] <= abs_tol]:
            values[k] = total_val[k]
            del heaps[k]
        if not heaps:
            return float(values[0]) if scalar else values
        if subdivisions == max_subdivisions:
            break
        popped = {k: heapq.heappop(heap) for k, heap in heaps.items()}
        halves = {}
        for k, (_, lo, hi, _) in popped.items():
            mid = 0.5 * (lo + hi)
            halves[k] = [(lo, mid), (mid, hi)]
        for k, [(v1, e1), (v2, e2)] in _round(f, count, halves).items():
            neg_err, _, _, old_val = popped[k]
            total_val[k] += v1 + v2 - old_val
            total_err[k] += e1 + e2 - (-neg_err)
            for (lo, hi), val, err in zip(halves[k], (v1, v2), (e1, e2)):
                heapq.heappush(heaps[k], (-err, lo, hi, val))
    k = next(iter(heaps))
    raise ConvergenceError(
        f"quadrature on [{a[k]}, {b[k]}] stalled at error {total_err[k]:.3e} "
        f"(target {abs_tol:.3e}) after {max_subdivisions} subdivisions")
