import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from rankmoments import binormal
from rankmoments.errors import DomainError
from rankmoments.orthant import (CorrelationMatrix4, _abg_coeffs, orthant_p2,
                                 orthant_p3, orthant_p4, w_from_p4, w_integral)
from rankmoments.quadrature import CLAMP_EPS


def mat(r12=0.0, r13=0.0, r14=0.0, r23=0.0, r24=0.0, r34=0.0):
    return CorrelationMatrix4.from_upper(r12, r13, r14, r23, r24, r34)


def random_correlation(rng):
    a = rng.standard_normal((4, 6))
    s = a @ a.T + 0.5 * np.eye(4)
    d = np.sqrt(np.diag(s))
    return CorrelationMatrix4(rho=s / np.outer(d, d))


class TestLowOrder:
    def test_p2_independent(self):
        assert orthant_p2(0.0) == pytest.approx(0.25, abs=1e-15)

    def test_p2_half(self):
        assert orthant_p2(0.5) == pytest.approx(1 / 3, abs=1e-12)

    def test_p3_equicorrelated_half(self):
        assert orthant_p3(0.5, 0.5, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_p3_independent(self):
        assert orthant_p3(0, 0, 0) == pytest.approx(0.125, abs=1e-15)


class TestP4:
    def test_independent(self):
        assert orthant_p4(mat()) == pytest.approx(1 / 16, abs=1e-12)

    def test_pairwise_coincident(self):
        # Z2 == Z1 and Z4 == Z3, independent blocks: (1/2)^2 = 1/4
        m = mat(r12=1.0, r34=1.0)
        assert orthant_p4(m) == pytest.approx(0.25, abs=1e-9)

    def test_one_coincident_pair(self):
        # Z2 == Z1, Z3 and Z4 free: (1/2)(1/4) = 1/8
        m = mat(r12=1.0)
        assert orthant_p4(m) == pytest.approx(0.125, abs=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        m = random_correlation(rng)
        base = orthant_p4(m)
        for perm in ((1, 0, 2, 3), (3, 2, 1, 0), (2, 0, 3, 1)):
            p = np.asarray(perm)
            permuted = CorrelationMatrix4(rho=m.rho[np.ix_(p, p)])
            assert orthant_p4(permuted) == pytest.approx(base, abs=1e-10)

    def test_w_roundtrip(self):
        rng = np.random.default_rng(4)
        m = random_correlation(rng)
        w = w_integral(m.rho[None])[0]
        assert w_from_p4(orthant_p4(m), m) == pytest.approx(w, abs=1e-10)

    def test_stacked_w_matches_single(self):
        # the patterns at rho = 1 have |r_1l| = 1 legs: the sine branch
        rng = np.random.default_rng(11)
        mats = [random_correlation(rng).rho for _ in range(20)]
        mats += [same + cross for same, cross in binormal._PATTERNS.values()]
        assert any(np.abs(m[0, 1:]).max() > 1 - 1e-8 for m in mats)
        single = [w_integral(m[None])[0] for m in mats]
        assert w_integral(np.stack(mats)).tolist() == single

    def test_orthants_partition_space(self):
        # the 16 sign-flipped orthant probabilities must sum to 1
        rng = np.random.default_rng(5)
        m = random_correlation(rng)
        total = 0.0
        for bits in range(16):
            signs = np.array([1 - 2 * ((bits >> k) & 1) for k in range(4)],
                             dtype=float)
            flipped = CorrelationMatrix4(rho=m.rho * np.outer(signs, signs))
            total += orthant_p4(flipped)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_matrix_validation(self):
        bad = np.eye(4)
        bad[0, 1] = bad[1, 0] = 1.2
        with pytest.raises(DomainError):
            CorrelationMatrix4(rho=bad)
        nonpsd = np.eye(4)
        for i in range(4):
            for j in range(4):
                if i != j:
                    nonpsd[i, j] = -0.9
        with pytest.raises(DomainError):
            CorrelationMatrix4(rho=nonpsd)


class TestQmcOracle:
    """Independent check against randomized quasi-random integration."""

    def test_random_matrices(self):
        rng = np.random.default_rng(77)
        reps, m_pow = 16, 13
        points = []
        for r in range(reps):
            eng = qmc.Sobol(d=4, scramble=True, seed=rng.integers(2 ** 63))
            points.append(ndtri(eng.random(2 ** m_pow)))
        for _ in range(8):
            m = random_correlation(rng)
            chol = np.linalg.cholesky(m.rho + 1e-12 * np.eye(4))
            means = np.array([( (p @ chol.T) > 0 ).all(axis=1).mean()
                              for p in points])
            est, se = means.mean(), means.std(ddof=1) / math.sqrt(reps)
            assert abs(orthant_p4(m) - est) <= 4 * max(se, 1e-6)


class TestIntegrandTerms:
    def test_positive_factors_and_feasible_ratio(self):
        # alpha, beta, gamma of each leg, from the coefficients that the
        # arcsine integrand of w_integral evaluates
        rng = np.random.default_rng(7)
        u = np.linspace(0.0, 0.999, 40)
        u2 = u * u
        for _ in range(20):
            r = random_correlation(rng)
            for ell in (1, 2, 3):
                a0, a2, b0, b2, g0, g2 = _abg_coeffs(r.rho, ell)
                beta = np.sqrt(np.maximum(b0 - b2 * u2, 0.0))
                gamma = np.sqrt(np.maximum(g0 - g2 * u2, 0.0))
                assert (beta > 0).all() and (gamma > 0).all()
                assert (np.abs((a0 - a2 * u2) / (beta * gamma))
                        <= 1 + CLAMP_EPS).all()
