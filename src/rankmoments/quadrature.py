"""Adaptive Gauss-Kronrod quadrature for smooth 1-D integrands.

A 7-point Gauss / 15-point Kronrod pair is applied per interval; the
interval with the largest error estimate is bisected until the summed
error estimate falls below the absolute tolerance.
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


def _gk15(f: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Return (kronrod_value, error_estimate) for one interval."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _XK), dtype=float)
    k = half * float(np.dot(_WK, fx))
    g = half * float(np.dot(_WG, fx[1::2]))
    # standard QUADPACK-style rescaled error estimate
    err = abs(k - g)
    if err > 0:
        err = min(err, (200.0 * err) ** 1.5)
    return k, err


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float,
    max_subdivisions: int = MAX_SUBDIVISIONS,
) -> float:
    """Integrate a vectorized integrand f over [a, b] to absolute tolerance.

    Raises ConvergenceError if the subdivision budget is exhausted first.
    """
    if a == b:
        return 0.0
    val, err = _gk15(f, a, b)
    # max-heap of (-error, a, b, value)
    heap = [(-err, a, b, val)]
    total_val, total_err = val, err
    for _ in range(max_subdivisions):
        if total_err <= abs_tol:
            return total_val
        neg_err, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        total_val += v1 + v2 - old_val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    if total_err <= abs_tol:
        return total_val
    raise ConvergenceError(
        f"quadrature on [{a}, {b}] stalled at error {total_err:.3e} "
        f"(target {abs_tol:.3e}) after {max_subdivisions} subdivisions"
    )
