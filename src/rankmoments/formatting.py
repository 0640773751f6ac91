"""Fixed-point decimal rendering helpers shared by the table writers."""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, getcontext


def format_fixed(value: float, places: int) -> str:
    """Render a float with exactly `places` decimals: its shortest repr
    rounded half-even, as a Decimal quantize of that repr would."""
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    r = repr(value)
    whole, _, decimals = r.partition(".")
    text = None
    # plain notation, and a result well within the Decimal context, which
    # raises InvalidOperation past it
    if "e" not in r and len(whole.lstrip("-")) + places < getcontext().prec:
        if len(decimals) <= places:
            text = r + "0" * (places - len(decimals))
        elif decimals[places:] != "5":
            # a rounding boundary between value and r would be a shorter
            # or closer repr than r, so the two round alike
            text = f"{value:.{places}f}"
    if text is None:
        text = format(Decimal(r).quantize(Decimal(1).scaleb(-places),
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
