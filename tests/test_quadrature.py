import heapq
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.errors import ConvergenceError
from rankmoments.quadrature import (_WG, _WK, _XK, _gk15, _nodes,
                                   integrate_adaptive)


def test_polynomial_exact():
    # degree 13 is inside the Kronrod exactness range on one interval
    val = integrate_adaptive(lambda x: 7 * x ** 13 - x ** 2 + 1, 0.0, 1.0, 1e-13)
    assert abs(val - (0.5 - 1 / 3 + 1)) < 1e-13


def test_sine():
    val = integrate_adaptive(np.sin, 0.0, math.pi, 1e-13)
    assert abs(val - 2.0) < 1e-12


def test_reversed_interval_sign():
    val = integrate_adaptive(np.sin, math.pi, 0.0, 1e-13)
    assert abs(val + 2.0) < 1e-12


def test_empty_interval():
    assert integrate_adaptive(np.sin, 1.0, 1.0, 1e-13) == 0.0


def test_near_singular_endpoint():
    # integrable arcsine-type integrand achieving a sharp value
    f = lambda u: 1.0 / np.sqrt(1 - (u * (1 - 1e-15)) ** 2)
    val = integrate_adaptive(f, 0.0, 1.0, 1e-11)
    assert abs(val - math.pi / 2) < 1e-7


def test_budget_exhaustion():
    rng = np.random.default_rng(0)
    spikes = rng.random(64)

    def jagged(x):
        return np.cos(1e7 * x) / np.sqrt(np.abs(x - spikes[0]) + 1e-15)

    with pytest.raises(ConvergenceError):
        integrate_adaptive(jagged, 0.0, 1.0, 1e-15, max_subdivisions=4)


@settings(max_examples=50, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_exponential_matches_closed_form(a, b):
    val = integrate_adaptive(np.exp, a, b, 1e-12)
    assert abs(val - (math.exp(b) - math.exp(a))) < 1e-9 * (1 + abs(val))


def one_at_a_time(f, a, b, abs_tol, max_subdivisions=400):
    """Reference: one integral, one GK15 panel per integrand call, bisected
    from a max-error heap. Returns the value and the bisection count."""
    def gk15(lo, hi):
        fx = np.asarray(f(_nodes(np.array([[lo]]), np.array([[hi]]))))
        k, err = _gk15(fx.reshape(1, 1, 15), np.array([[lo]]), np.array([[hi]]))
        return float(k[0, 0]), float(err[0, 0])

    if a == b:
        return 0.0, 0
    val, err = gk15(a, b)
    heap, total_val, total_err = [(-err, a, b, val)], val, err
    for bisections in range(max_subdivisions):
        if total_err <= abs_tol:
            return total_val, bisections
        neg_err, lo, hi, old_val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        (v1, e1), (v2, e2) = gk15(lo, mid), gk15(mid, hi)
        total_val += v1 + v2 - old_val
        total_err += e1 + e2 - (-neg_err)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
    raise ConvergenceError("reference stalled")


def test_lock_step_matches_one_at_a_time():
    # mixed lengths (0 to several bisections), a reversed and an empty interval
    a = np.array([0.0, 0.0, math.pi, 1.0, -2.0, 0.5])
    b = np.array([1.0, 12.0, 0.0, 1.0, 0.5, 0.0])

    def f(x):
        return np.cos(x * x) + 1.0 / (0.1 + x * x)

    seen = []

    def recorded(nodes):
        x, rows = nodes
        assert x.shape == (len(rows), x.shape[1])
        seen.append(rows.tolist())
        return f(x)

    indexed = integrate_adaptive(recorded, a, b, 1e-13, indexed=True)
    batch = integrate_adaptive(f, a, b, 1e-13)
    single = [integrate_adaptive(f, lo, hi, 1e-13) for lo, hi in zip(a, b)]
    reference, bisections = zip(*(one_at_a_time(f, lo, hi, 1e-13)
                                  for lo, hi in zip(a.tolist(), b.tolist())))
    assert all(isinstance(v, float) for v in single)
    assert indexed.tolist() == batch.tolist() == single == list(reference)
    assert single[3] == 0.0
    # one call per round, on the unfinished integrals only: integral k is
    # in rounds 0..bisections[k], the empty one in none
    assert max(bisections) > 3
    assert seen == [[k for k in range(6) if k != 3 and bisections[k] >= j]
                    for j in range(max(bisections) + 1)]


def test_lock_step_stall_names_its_interval():
    def f(nodes):
        x, rows = nodes
        out = np.sin(x)
        jag = rows == 1
        out[jag] = np.cos(1e7 * x[jag]) / np.sqrt(np.abs(x[jag] - 0.3) + 1e-15)
        return out

    a, b = np.array([0.0, 0.25, 0.0]), np.array([1.0, 0.75, 2.0])
    with pytest.raises(ConvergenceError, match=r"on \[0\.25, 0\.75\] stalled"):
        integrate_adaptive(f, a, b, 1e-13, max_subdivisions=4, indexed=True)
    # the other two converge on their own
    assert integrate_adaptive(np.sin, a[[0, 2]], b[[0, 2]], 1e-13).tolist() \
        == [integrate_adaptive(np.sin, 0.0, 1.0, 1e-13),
            integrate_adaptive(np.sin, 0.0, 2.0, 1e-13)]


def test_per_integral_tolerance():
    # each integral stops at its own tolerance, as it would alone
    a, b = np.zeros(3), np.array([12.0, 12.0, 3.0])
    tol = np.array([1e-13, 1e-6, 1e-9])

    def f(x):
        return np.cos(x * x)

    assert integrate_adaptive(f, a, b, tol).tolist() == [
        integrate_adaptive(f, 0.0, hi, t) for hi, t in zip(b, tol)]


def _moment_errors(nodes, weights, degree):
    """Largest |sum w x^p - integral of x^p over [-1, 1]| for p <= degree,
    in exact arithmetic on the double constants."""
    mp.mp.dps = 40
    xs = [mp.mpf(float(v)) for v in nodes]
    ws = [mp.mpf(float(v)) for v in weights]
    return max(abs(mp.fsum(w * x ** p for x, w in zip(xs, ws))
                   - (mp.mpf(2) / (p + 1) if p % 2 == 0 else 0))
               for p in range(degree + 1))


def test_gk15_constants():
    # the full-precision QUADPACK values: the weights sum to 2 and the
    # Kronrod (Gauss) rule integrates x^p exactly for p <= 22 (13), up to
    # the rounding of the constants to double
    assert abs(math.fsum(_WK.tolist()) - 2) <= 4.5e-16
    assert abs(math.fsum(_WG.tolist()) - 2) <= 4.5e-16
    assert _moment_errors(_XK, _WK, 22) <= 4.5e-16
    assert _moment_errors(_XK[1::2], _WG, 13) <= 4.5e-16
    assert _XK.tolist() == [-v for v in _XK[::-1].tolist()]
    assert _WK.tolist() == _WK[::-1].tolist()
    assert _WG.tolist() == _WG[::-1].tolist()
