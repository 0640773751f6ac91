"""Moments of the rank coefficients under a two-component normal mixture.

Each observation pair independently comes from the nominal component
with standard normal margins and correlation rho (probability
1 - epsilon) or from an inflated component with scale multipliers lambda_x, lambda_y and its own
correlation rho_prime (probability epsilon).

Because ranks are invariant to the common location and scale, the
expectations depend only on the correlations of differences of mixture
draws, generated from the two components by which one each of the two
(or three) contributing observations came from. The means are the normal
model's, with asin(rho) and asin(rho / 2) replaced by the weighted
arcsines of the pair and the triple correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .binormal import _check_n, _mean_rk, _mean_rs
from .errors import DomainError
from .orthant import asin_clamped


@dataclass(frozen=True)
class ContaminationParams:
    """Mixture description: nominal correlation, contamination fraction,
    scale inflations, and the contaminant's own correlation."""

    rho: float
    epsilon: float
    lambda_x: float
    lambda_y: float
    rho_prime: float

    def __post_init__(self):
        if not abs(self.rho) <= 1:
            raise DomainError(f"|rho| must be <= 1, got {self.rho}")
        if not abs(self.rho_prime) <= 1:
            raise DomainError(f"|rho_prime| must be <= 1, got {self.rho_prime}")
        if not 0 <= self.epsilon <= 1:
            raise DomainError(f"epsilon must be in [0, 1], got {self.epsilon}")
        # a NaN, infinite or overflowing scale would run a whole cell and
        # fail late; the mixture correlations square each scale
        lx, ly = self.lambda_x, self.lambda_y
        if not (0 < lx and 0 < ly and max(lx * lx, ly * ly) < math.inf):
            raise DomainError("scale multipliers must be finite and positive, "
                              f"with finite squares, got {lx}, {ly}")


def _difference_corr(xa, ya, ra, xb, yb, rb) -> float:
    """corr(X_a - X_b, Y_a - Y_b) for independent draws a and b, with
    standard deviations x, y and correlation r. Both X and both Y are first
    scaled by the power of two that puts the larger in [1, 2): that is
    exact, and sums of squares then neither overflow nor vanish."""
    ex, ey = (1 - math.frexp(max(s, t))[1] for s, t in ((xa, xb), (ya, yb)))
    xa, xb = math.ldexp(xa, ex), math.ldexp(xb, ex)
    ya, yb = math.ldexp(ya, ey), math.ldexp(yb, ey)
    return ((xa * ya * ra + xb * yb * rb)
            / math.sqrt((xa * xa + xb * xb) * (ya * ya + yb * yb)))


def mixture_correlations(params: ContaminationParams) -> tuple:
    """Correlations of standardized differences, by component pattern,
    as (pair, triple), each a tuple of (correlation, weight): pair holds
    corr(X_i - X_j, Y_i - Y_j), triple corr(X_i - X_j, Y_i - Y_k), over the
    components (probability, sd of X, sd of Y, correlation) of i, j (and k)
    in itertools.product order, weighted by the product of their
    probabilities. The all-nominal entries are exactly rho and rho / 2.
    """
    comps = ((1 - params.epsilon, 1.0, 1.0, params.rho),
             (params.epsilon, params.lambda_x, params.lambda_y,
              params.rho_prime))
    pair = tuple((_difference_corr(xi, yi, ri, xj, yj, rj), wi * wj)
                 for (wi, xi, yi, ri), (wj, xj, yj, rj)
                 in product(comps, repeat=2))
    # X_j and Y_k come from different draws: correlation 0
    triple = tuple((_difference_corr(xi, yi, ri, xj, yk, 0.0), wi * wj * wk)
                   for (wi, xi, yi, ri), (wj, xj, _, _), (wk, _, yk, _)
                   in product(comps, repeat=3))
    return pair, triple


def _weighted_asins(params: ContaminationParams) -> list:
    """[A1, A2], the weighted arcsines of the pair and triple entries."""
    return [math.fsum(w * asin_clamped(r) for r, w in table)
            for table in mixture_correlations(params)]


def expected_rk_contaminated(params: ContaminationParams) -> float:
    """Expected concordance coefficient under the mixture, the same for
    every n >= 2."""
    return _mean_rk(_weighted_asins(params)[0])


def expected_rs_contaminated(params: ContaminationParams, n: int) -> float:
    """Expected rank correlation under the mixture, exact in n."""
    _check_n(n, 2, "need n >= 2")
    return _mean_rs(*_weighted_asins(params), n)


def rival_formula_star(params: ContaminationParams) -> float:
    """A plausible but incorrect limiting mean for the rank correlation.

    Kept as a reference point: it halves the contaminant correlation the
    same way the nominal one is halved, which double-counts the mixing.
    """
    eps = params.epsilon
    return 6 / math.pi * ((1 - eps) * math.asin(params.rho / 2)
                          + eps * math.asin(params.rho_prime / 2))


def sample_contaminated_block(params: ContaminationParams, n: int,
                              stream: np.random.Generator, size: int) -> tuple:
    """Draw `size` samples of n pairs from the mixture, for every rho:
    simulate makes such a draw per (n, block), once for each group of rho
    it cuts the grid into, and computes each rho's cell from it.

    Returns the draw (x, v, mask): x and v have shape (size, n), and mask
    is True where a pair came from the contaminant. For standard normals
    u and v, x is u, or lambda_x u on the mask. Off the mask a rho's y is
    sqrt(1 - rho^2) v + rho x (simulate._YRows). On the mask y does not
    depend on rho, and v holds it: lambda_y (rho' u + sqrt(1 - rho'^2) v)
    of that entry's own u and v. params.rho is not read.
    """
    if n < 1 or size < 1:
        raise DomainError("n and size must be positive")
    x, v = stream.standard_normal((2, size, n))
    mask = stream.random((size, n)) < params.epsilon
    a1 = params.rho_prime
    b1 = math.sqrt(max(1 - a1 * a1, 0.0))
    u_masked = x[mask]
    y_masked = a1 * u_masked
    y_masked += b1 * v[mask]
    y_masked *= params.lambda_y
    u_masked *= params.lambda_x
    x[mask] = u_masked
    v[mask] = y_masked
    return x, v, mask
