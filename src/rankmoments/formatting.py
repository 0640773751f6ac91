"""Fixed-point decimal rendering helpers shared by the table writers."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal


def format_fixed(value: float, places: int) -> str:
    """Render a float with exactly `places` decimals, banker's rounding."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    quantum = Decimal(1).scaleb(-places)
    text = format(Decimal(repr(value)).quantize(quantum,
                                                rounding=ROUND_HALF_EVEN), "f")
    # normalize "-0.00..." to the positive form
    if text.startswith("-") and float(text) == 0.0:
        text = text[1:]
    return text


def label_places(values, places: int) -> int:
    """The fewest decimals, and no fewer than `places`, at which
    format_fixed renders every finite value so that it reads back as
    itself: the decimals of the shortest repr that round-trips."""
    return max([places, *(-Decimal(repr(float(v))).as_tuple().exponent
                          for v in values if math.isfinite(v))])
