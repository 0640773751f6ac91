#!/usr/bin/env python3
"""Print the exact bits of the quadrature-valued theory, for diffing two
versions of the package.

Prints float.hex of omega1-omega4 on -1(0.01)1 and at +-0.999999,
+-(1 - 1e-9) and 0.3333, then of pattern_w for all twelve pattern letters
at rho in {-1, 0, 0.3, 1}, then of what is built on them on a small grid:
the estimators' bias and variance for the four kinds and var_rs_asymptotic
at each (rho, n) of ESTIMATOR_RHOS x ESTIMATOR_NS, and the efficiency of
the three rank-based kinds at ESTIMATOR_RHOS, at +-1 and at two points
where it cancels, and last the contaminated model's means of r_K and r_S
at each (rho, epsilon, lambda_x, lambda_y, rho_prime, n) of a small grid.
One line per quantity. Run it under two checkouts and diff the outputs:
an empty diff means every value is bitwise unchanged.

    PYTHONPATH=src python3 scripts/omega_bits.py > bits.txt
"""

from rankmoments.binormal import (_PATTERNS, omegas, pattern_w,
                                  var_rs_asymptotic)
from rankmoments.cli import parse_grid
from rankmoments.contaminated import (ContaminationParams,
                                      expected_rk_contaminated,
                                      expected_rs_contaminated)
from rankmoments.estimators import (EstimatorKind, are, bias_theoretical,
                                    variance_theoretical)

ESTIMATOR_RHOS = (-0.95, -0.5, 0.0, 0.3, 0.6, 0.9, 0.999999)
ESTIMATOR_NS = (4, 5, 20, 1000)
MIXTURE_RHOS = (-0.5, 0.3, 0.9)
MIXTURE_EPSILONS = (0.0, 0.05, 0.5, 1.0)
MIXTURE_SCALES = ((3.0, 2.0, -0.4), (100.0, 100.0, 0.0))  # lx, ly, rho'
MIXTURE_NS = (4, 20, 1000)


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
    for rho in ESTIMATOR_RHOS:
        for n in ESTIMATOR_NS:
            for kind in EstimatorKind:
                print(f"estimator {kind.value} {rho!r} {n}",
                      bias_theoretical(kind, rho, n).hex(),
                      variance_theoretical(kind, rho, n).hex())
            print(f"var_rs_asymptotic {rho!r} {n}",
                  var_rs_asymptotic(rho, n).hex())
    for rho in ESTIMATOR_RHOS + (1.0, -1.0, 0.9999999, -0.99999999999):
        for kind in list(EstimatorKind)[1:]:
            print(f"are {kind.value} {rho!r}", are(kind, rho).hex())
    for rho in MIXTURE_RHOS:
        for eps in MIXTURE_EPSILONS:
            for lx, ly, rp in MIXTURE_SCALES:
                p = ContaminationParams(rho, eps, lx, ly, rp)
                for n in MIXTURE_NS:
                    print(f"contaminated {rho!r} {eps!r} {lx!r} {ly!r} "
                          f"{rp!r} {n}", expected_rk_contaminated(p).hex(),
                          expected_rs_contaminated(p, n).hex())


if __name__ == "__main__":
    main()
