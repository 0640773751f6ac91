import math

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import qmc

from rankmoments import binormal
from rankmoments.errors import DomainError
from rankmoments.orthant import (CorrelationMatrix4, _abg_coeffs,
                                 _arcsine_ratio, orthant_p2, orthant_p3,
                                 orthant_p4, w_integral)
from rankmoments.quadrature import CLAMP_EPS


def mat(r12=0.0, r13=0.0, r14=0.0, r23=0.0, r24=0.0, r34=0.0):
    return CorrelationMatrix4(rho=np.array([
        [1.0, r12, r13, r14],
        [r12, 1.0, r23, r24],
        [r13, r23, 1.0, r34],
        [r14, r24, r34, 1.0],
    ]))


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

    def test_p2_clamp_margin(self):
        # roundoff within CLAMP_EPS beyond 1 is clamped, more is an error
        assert orthant_p2(1 + 2e-16) == 0.5
        assert orthant_p2(-1 - CLAMP_EPS) == 0.0
        for bad in (1 + 2 * CLAMP_EPS, -1.5, math.nan):
            with pytest.raises(DomainError):
                orthant_p2(bad)

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

    @pytest.mark.parametrize("m, expected", [
        # Z2 == Z3: the orthant of (Z1, Z2, Z4)
        (mat(r12=0.4, r13=0.4, r14=0.2, r23=1.0, r24=0.3, r34=0.3),
         orthant_p3(0.4, 0.2, 0.3)),
        # Z1 == Z2 == Z3: the orthant of (Z1, Z4)
        (mat(r12=1.0, r13=1.0, r23=1.0, r14=0.5, r24=0.5, r34=0.5), 1 / 3),
        # Z2 == -Z3: disjoint half-spaces
        (mat(r12=0.4, r13=-0.4, r14=0.2, r23=-1.0, r24=0.3, r34=-0.3), 0.0),
    ], ids=["Z2=Z3", "Z1=Z2=Z3", "Z2=-Z3"])
    def test_partner_coincides(self, m, expected):
        # a leg whose partner coincides with another variable has
        # alpha = beta*gamma = 0 at its nodes: the 0/0 ratio is taken as 0
        assert orthant_p4(m) == pytest.approx(expected, abs=1e-12)

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
        # invert P4 = (1 + (2/pi) sum_{i<j} asin(r_ij) + W) / 16
        arcsines = sum(math.asin(m.rho[i, j])
                       for i in range(3) for j in range(i + 1, 4))
        inverted = 16 * orthant_p4(m) - 1 - 2 / math.pi * arcsines
        assert inverted == pytest.approx(w, abs=1e-10)

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

    def test_arcsine_ratio_guards(self):
        u2 = np.array([0.0, 0.25, 0.81])

        def ratio(a0, b0):
            return _arcsine_ratio(u2, (a0, 0.0, b0, 0.0, 1.0, 0.0))

        assert ratio(0.0, 0.0).tolist() == [0.0] * 3
        with pytest.raises(DomainError):
            ratio(0.5, 0.0)
        assert ratio(1 + CLAMP_EPS / 2, 1.0).tolist() == [math.pi / 2] * 3
        with pytest.raises(DomainError):
            ratio(1 + 2 * CLAMP_EPS, 1.0)
