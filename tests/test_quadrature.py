import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.errors import ConvergenceError
from rankmoments.quadrature import integrate_adaptive


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
