import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.errors import ConvergenceError
from rankmoments.quadrature import _WG, _WK, _XK, integrate_adaptive


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
    """Reference: one integral, one GK15 panel per integrand call."""
    def gk15(lo, hi):
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        fx = np.asarray(f(mid + half * _XK), dtype=float)
        k = half * float(np.dot(_WK, fx))
        g = half * float(np.dot(_WG, fx[1::2]))
        err = abs(k - g)
        return k, min(err, (200.0 * err) ** 1.5) if err > 0 else err

    if a == b:
        return 0.0
    val, err = gk15(a, b)
    heap, total_val, total_err = [(-err, a, b, val)], val, err
    for _ in range(max_subdivisions):
        if total_err <= abs_tol:
            return total_val
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

    rows = []

    def recorded(x):
        rows.append(np.isnan(x).all(axis=1))
        return f(x)

    batch = integrate_adaptive(recorded, a, b, 1e-13)
    single = [integrate_adaptive(f, lo, hi, 1e-13) for lo, hi in zip(a, b)]
    reference = [one_at_a_time(f, lo, hi, 1e-13)
                 for lo, hi in zip(a.tolist(), b.tolist())]
    assert all(isinstance(v, float) for v in single)
    assert batch.tolist() == single == reference
    assert single[3] == 0.0
    # one call per round; finished and empty integrals are NaN rows
    assert len(rows) > 3 and all(r.shape == (6,) for r in rows)
    assert all(r[3] for r in rows) and not rows[-1][1] and rows[-1][0]


def test_lock_step_stall_names_its_interval():
    def f(x):
        out = np.sin(x)
        out[1] = np.cos(1e7 * x[1]) / np.sqrt(np.abs(x[1] - 0.3) + 1e-15)
        return out

    a, b = np.array([0.0, 0.25, 0.0]), np.array([1.0, 0.75, 2.0])
    with pytest.raises(ConvergenceError, match=r"on \[0\.25, 0\.75\] stalled"):
        integrate_adaptive(f, a, b, 1e-13, max_subdivisions=4)
    # the other two converge on their own
    assert integrate_adaptive(np.sin, a[[0, 2]], b[[0, 2]], 1e-13).tolist() \
        == [integrate_adaptive(np.sin, 0.0, 1.0, 1e-13),
            integrate_adaptive(np.sin, 0.0, 2.0, 1e-13)]
