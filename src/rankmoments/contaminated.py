"""Moments of the rank coefficients under a two-component normal mixture.

Each observation pair independently comes from the nominal component
with standard normal margins and correlation rho (probability
1 - epsilon) or from an inflated component with scale multipliers lambda_x, lambda_y and its own
correlation rho_prime (probability epsilon).

Because ranks are invariant to the common location and scale, the
expectations depend only on the correlations of differences of mixture
draws. Those correlations take twelve distinct values indexed by which
component each of the two (or three) contributing observations came from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .orthant import asin_clamped, orthant_p2


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


def mixture_correlations(params: ContaminationParams) -> tuple:
    """Correlations of standardized differences, by component pattern,
    as (pair, triple), each a tuple of (correlation, weight).

    pair holds rho_1..rho_4, the differences of two observations,
    weighted by which component each came from: (1-e)^2, e(1-e), e(1-e),
    e^2. triple holds rho_5..rho_12, the two differences sharing one
    observation out of three, with their multiplicities.
    """
    rho, eps = params.rho, params.epsilon
    lx, ly, rp = params.lambda_x, params.lambda_y, params.rho_prime
    cx = math.sqrt(1 + lx * lx)
    cy = math.sqrt(1 + ly * ly)
    r2 = math.sqrt(2)

    rho1 = rho
    rho2 = (rho + lx * ly * rp) / (cx * cy)
    rho3 = rho2
    rho4 = rp
    pair = (rho1, rho2, rho3, rho4)
    eb = 1 - eps
    pair_w = (eb * eb, eps * eb, eps * eb, eps * eps)

    rho5 = rho / 2
    rho6 = rho / (r2 * cy)
    rho7 = rho / (r2 * cx)
    rho8 = lx * ly * rp / (cx * cy)
    rho9 = rho / (cx * cy)
    rho10 = lx * rp / (r2 * cx)
    rho11 = ly * rp / (r2 * cy)
    rho12 = rp / 2
    triple = (rho5, rho6, rho7, rho8, rho9, rho10, rho11, rho12)
    triple_w = (eb ** 3,
                eps * eb * eb, eps * eb * eb, eps * eb * eb,
                eps * eps * eb, eps * eps * eb, eps * eps * eb,
                eps ** 3)
    return tuple(zip(pair, pair_w)), tuple(zip(triple, triple_w))


def expected_rk_contaminated(params: ContaminationParams) -> float:
    """Expected concordance coefficient under the mixture, the same for
    every n >= 2."""
    acc = 0.0
    for r, w in mixture_correlations(params)[0]:
        acc += w * asin_clamped(r)
    return 2 / math.pi * acc


def expected_rs_contaminated(params: ContaminationParams, n: int) -> float:
    """Expected rank correlation under the mixture, exact in n."""
    if n < 2:
        raise DomainError("need n >= 2")
    pair, triple = mixture_correlations(params)
    # E1: orthant probability of two differences built from the same pair
    e1 = sum(w * orthant_p2(r) for r, w in pair)
    # E2: orthant probability of two differences sharing one observation
    e2 = sum(w * orthant_p2(r) for r, w in triple)
    es = n * (n - 1) * e1 + n * (n - 1) * (n - 2) * e2
    return 12 * (es - n * (n - 1) ** 2 / 4) / (n * (n * n - 1))


def rival_formula_star(params: ContaminationParams) -> float:
    """A plausible but incorrect limiting mean for the rank correlation.

    Kept as a reference point: it halves the contaminant correlation the
    same way the nominal one is halved, which double-counts the mixing.
    """
    eps = params.epsilon
    return 6 / math.pi * ((1 - eps) * math.asin(params.rho / 2)
                          + eps * math.asin(params.rho_prime / 2))


def sample_contaminated_block(params: ContaminationParams, n: int,
                              stream: np.random.Generator, size: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Draw `size` samples of n pairs from the mixture.

    Returns (x, y) arrays of shape (size, n). Each pair independently
    picks its component; the nominal component has unit scales.
    """
    if n < 1 or size < 1:
        raise DomainError("n and size must be positive")

    def cholesky_pair(r):
        return r, math.sqrt(max(1 - r * r, 0.0))

    u, v = stream.standard_normal((2, size, n))
    contaminated = stream.random((size, n)) < params.epsilon

    a0, b0 = cholesky_pair(params.rho)
    a1, b1 = cholesky_pair(params.rho_prime)
    x = np.where(contaminated, params.lambda_x * u, u)
    y_core = np.where(contaminated, a1 * u + b1 * v, a0 * u + b0 * v)
    y = np.where(contaminated, params.lambda_y * y_core, y_core)
    return x, y
