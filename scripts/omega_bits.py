#!/usr/bin/env python3
"""Print the exact bits of the quadrature-valued theory, for diffing two
versions of the package.

Prints float.hex of omega1-omega4 on -1(0.01)1 and at +-0.999999,
+-(1 - 1e-9) and 0.3333, then of pattern_w for all twelve pattern letters
at rho in {-1, 0, 0.3, 1}, one value per line. Run it under two
checkouts and diff the outputs: an empty diff means every value is
bitwise unchanged.

    PYTHONPATH=src python3 scripts/omega_bits.py > bits.txt
"""

from rankmoments.binormal import _PATTERNS, omegas, pattern_w
from rankmoments.cli import parse_grid


def main() -> None:
    grid = parse_grid("-1(0.01)1") + [0.999999, -0.999999, 1 - 1e-9,
                                      -(1 - 1e-9), 0.3333]
    for rho, om in zip(grid, omegas(grid)):
        print(f"omegas {rho!r}", *(v.hex() for v in (
            om.omega1, om.omega2, om.omega3, om.omega4)))
    labels = "".join(sorted(_PATTERNS))
    for rho in (-1.0, 0.0, 0.3, 1.0):
        w = pattern_w(labels, rho)
        for label in labels:
            print(f"pattern_w {label} {rho!r}", w[label].hex())


if __name__ == "__main__":
    main()
