"""format_fixed against the Decimal body it replaced, byte for byte."""

import decimal
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import format_fixed_oracle
from rankmoments.formatting import format_fixed


def _outcome(fn, value, places):
    try:
        return "ok", fn(value, places)
    except decimal.InvalidOperation as exc:
        return "raise", type(exc)


def _ties():
    """Values whose repr ends in a 5 just past some number of places, and
    their float neighbours."""
    def build(digits, decimals, step):
        value = float(f"{digits}5e-{decimals}")
        return math.nextafter(value, step * math.inf) if step else value
    return st.builds(build, st.integers(0, 10 ** 9),
                     st.integers(1, 17), st.sampled_from([-1, 0, 1]))


SPECIALS = [0.0, -0.0, 0.5, -0.5, 0.125, 2.675, 1.005, 123456.7, 1e-4,
            9.5e-5, 1e15, 1e15 + 0.3, 9999999999999.99, 1e16, 1.2345e22,
            -1.5e-7, 5e-324, 1.7976931348623157e308, math.pi, -math.e,
            0.9999999999999999, 99.99999999999999, float("nan"),
            float("inf"), float("-inf")]


@settings(max_examples=3000, deadline=None)
@given(st.one_of(st.floats(), st.sampled_from(SPECIALS), _ties(),
                 st.floats(-1e17, 1e17), st.floats(-1e-3, 1e-3)),
       st.integers(1, 15))
@example(123456.7, 15)
@example(1e15, 15)          # Decimal rejects: 31 digits
@example(-0.0001, 2)        # rounds to -0.00, printed as 0.00
@example(0.125, 2)          # an exact binary tie: half-even on the repr
def test_matches_decimal_body(value, places):
    assert (_outcome(format_fixed, value, places)
            == _outcome(format_fixed_oracle, value, places))


@pytest.mark.parametrize("value, places, text", [
    (123456.7, 15, "123456.700000000000000"),   # zeros, not binary noise
    (2.675, 2, "2.68"),   # the repr rounds up, the binary value is below
    (0.125, 2, "0.12"),
    (0.375, 2, "0.38"),
    (-0.0, 3, "0.000"),
    (-1e-9, 4, "0.0000"),
    (1.5e-7, 8, "0.00000015"),
    (1e16, 1, "10000000000000000.0"),
])
def test_known_renderings(value, places, text):
    assert format_fixed(value, places) == text


def test_decimal_rejects_what_it_rejected():
    with pytest.raises(decimal.InvalidOperation):
        format_fixed(1e15, 15)
