import math

import numpy as np
import pytest

from rankmoments.binormal import lemma2_moments
from rankmoments.contaminated import (ContaminationParams,
                                      expected_rk_contaminated,
                                      expected_rs_contaminated,
                                      mixture_correlations,
                                      rival_formula_star,
                                      sample_contaminated_block)
from rankmoments.correlation import PairedSample, kendall, spearman
from rankmoments.errors import DomainError


def params(rho=0.5, eps=0.1, lx=3.0, ly=2.0, rp=-0.4):
    return ContaminationParams(rho=rho, epsilon=eps, lambda_x=lx,
                               lambda_y=ly, rho_prime=rp)


def rk_limit(p):
    """Small-epsilon linearisation of the mean of r_K as the contaminant
    scales grow: a contaminated pair carries rho_prime, the rest rho."""
    eps = p.epsilon
    return 2 / math.pi * ((1 - 2 * eps) * math.asin(p.rho)
                          + 2 * eps * math.asin(p.rho_prime))


def rs_limit(p):
    """The same linearisation for the large-n mean of r_S."""
    eps = p.epsilon
    return 6 / math.pi * ((1 - 3 * eps) * math.asin(p.rho / 2)
                          + eps * math.asin(p.rho_prime))


class TestMixtureCorrelations:
    def test_weights_sum_to_one(self):
        pair, triple = mixture_correlations(params())
        assert sum(w for _, w in pair) == pytest.approx(1.0, abs=1e-15)
        assert sum(w for _, w in triple) == pytest.approx(1.0, abs=1e-15)

    def test_all_magnitudes_bounded(self):
        pair, triple = mixture_correlations(
            params(rho=0.99, rp=0.99, lx=100, ly=100))
        assert len(pair) == 4 and len(triple) == 8
        for r, _ in pair + triple:
            assert abs(r) <= 1

    def test_no_contamination_collapses(self):
        pair, triple = mixture_correlations(params(eps=0.0))
        assert tuple(w for _, w in pair) == (1.0, 0.0, 0.0, 0.0)
        assert pair[0][0] == 0.5
        assert triple[0][0] == 0.25

    def test_equal_scales_symmetric(self):
        p = params(lx=4.0, ly=4.0)
        pair, _ = mixture_correlations(p)
        # the two single-contaminated pair patterns coincide
        assert pair[1][0] == pair[2][0]

    @pytest.mark.parametrize("n", [4, 15, 200])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_all_contaminated_ignores_scale(self, rho, n):
        # at epsilon = 1 every pair is a contaminant; ranks ignore the
        # unequal scales, so the means are the binormal ones at rho_prime
        for rp in (-0.7, 0.2, 0.8):
            p = params(rho=rho, eps=1.0, lx=7.0, ly=0.3, rp=rp)
            lm = lemma2_moments(rp, n)
            assert abs(expected_rk_contaminated(p) - lm["mean_rk"]) <= 1e-14
            assert abs(expected_rs_contaminated(p, n)
                       - lm["mean_rs"]) <= 1e-14

    @pytest.mark.parametrize("n", [4, 15, 200])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.95])
    def test_unit_scales_same_rho_is_binormal(self, rho, n):
        # with unit scales and rho_prime = rho both components are the
        # same binormal law, whatever epsilon mixes them; every one of
        # the twelve table entries carries weight for 0 < epsilon < 1
        lm = lemma2_moments(rho, n)
        for eps in (0.0, 0.05, 0.3, 0.7, 1.0):
            p = params(rho=rho, eps=eps, lx=1.0, ly=1.0, rp=rho)
            assert abs(expected_rk_contaminated(p) - lm["mean_rk"]) <= 1e-14
            assert abs(expected_rs_contaminated(p, n)
                       - lm["mean_rs"]) <= 1e-14


class TestExpectations:
    def test_epsilon_zero_matches_uncontaminated(self):
        p = params(eps=0.0, rho=0.6)
        lm = lemma2_moments(0.6, 15)
        assert expected_rk_contaminated(p) == pytest.approx(lm["mean_rk"],
                                                            abs=1e-14)
        assert expected_rs_contaminated(p, 15) == pytest.approx(lm["mean_rs"],
                                                                abs=1e-14)

    def test_exact_approaches_limit_for_heavy_tails(self):
        # large scale inflation and large n drive the exact value to
        # the epsilon-linear limit
        p = params(eps=0.01, rho=0.6, lx=1000.0, ly=1000.0, rp=0.0)
        exact = expected_rs_contaminated(p, 5000)
        lim = rs_limit(p)
        assert abs(exact - lim) < 5e-3

    def test_rival_differs(self):
        p = params(eps=0.05, rho=0.9, rp=0.0, lx=100.0, ly=100.0)
        assert abs(rival_formula_star(p)
                   - rs_limit(p)) > 0.01

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("lam", [0.1, 1.0, 3.0])
    def test_perfect_correlation(self, sign, lam):
        # at lambda = 0.1 the mixed-pattern pair correlation rounds to
        # 1 + 1 ulp in magnitude, which the arcsine must take as 1
        p = params(rho=sign, rp=sign, eps=0.1, lx=lam, ly=lam)
        assert abs(expected_rk_contaminated(p) - sign) <= 1e-8
        assert abs(expected_rs_contaminated(p, 10) - sign) <= 1e-8

    def test_degrades_with_epsilon(self):
        # contamination with rho_prime = 0 pulls the mean toward zero
        base = params(eps=0.0, rho=0.8, rp=0.0, lx=100.0, ly=100.0)
        heavy = params(eps=0.2, rho=0.8, rp=0.0, lx=100.0, ly=100.0)
        assert expected_rk_contaminated(heavy) < expected_rk_contaminated(base)


class TestSampler:
    def test_shapes_and_determinism(self):
        p = params()
        x1, y1 = sample_contaminated_block(p, 20, np.random.default_rng(9), 5)
        x2, y2 = sample_contaminated_block(p, 20, np.random.default_rng(9), 5)
        assert x1.shape == (5, 20)
        assert (x1 == x2).all() and (y1 == y2).all()

    def test_degenerate_correlation(self):
        p = params(rho=1.0, eps=0.0)
        x, y = sample_contaminated_block(p, 50, np.random.default_rng(1), 1)
        assert np.allclose(x[0], y[0])

    def test_location_scale(self):
        # the draws are standardised; a location/scale map on top of them
        # moves the moments and leaves the ranks alone
        x_std, y_std = sample_contaminated_block(
            params(eps=0.0), 4000, np.random.default_rng(2), 1)
        x, y = 10.0 + 0.1 * x_std, -5.0 + 2.0 * y_std
        assert abs(x[0].mean() - 10.0) < 0.02
        assert abs(y[0].mean() + 5.0) < 0.2
        assert abs(x[0].std() - 0.1) < 0.01
        s_std = PairedSample(x=x_std[0], y=y_std[0])
        s = PairedSample(x=x[0], y=y[0])
        assert spearman(s) == spearman(s_std)
        assert kendall(s) == kendall(s_std)

    def test_monte_carlo_agreement(self):
        p = params(rho=0.5, eps=0.1, lx=3.0, ly=2.0, rp=-0.4)
        n, trials = 10, 4000
        x, y = sample_contaminated_block(p, n, np.random.default_rng(33),
                                         trials)
        rs = np.empty(trials)
        rk = np.empty(trials)
        for i in range(trials):
            s = PairedSample(x=x[i], y=y[i])
            rs[i] = spearman(s)
            rk[i] = kendall(s)
        se_s = rs.std(ddof=1) / math.sqrt(trials)
        se_k = rk.std(ddof=1) / math.sqrt(trials)
        assert abs(rs.mean() - expected_rs_contaminated(p, n)) < 4 * se_s
        assert abs(rk.mean() - expected_rk_contaminated(p)) < 4 * se_k


class TestValidation:
    def test_bad_epsilon(self):
        with pytest.raises(DomainError):
            params(eps=1.5)

    def test_bad_scale(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                params(lx=bad)
            with pytest.raises(DomainError):
                params(ly=bad)

    def test_bad_rho(self):
        with pytest.raises(DomainError):
            params(rho=-1.01)


class TestSymmetryAndConvergence:
    def test_odd_sign_symmetry(self):
        p_pos = params(rho=0.45, eps=0.08, lx=4.0, ly=2.5, rp=0.3)
        p_neg = params(rho=-0.45, eps=0.08, lx=4.0, ly=2.5, rp=-0.3)
        assert expected_rk_contaminated(p_neg) == pytest.approx(
            -expected_rk_contaminated(p_pos), abs=1e-13)
        assert expected_rs_contaminated(p_neg, 25) == pytest.approx(
            -expected_rs_contaminated(p_pos, 25), abs=1e-13)

    def test_monotone_convergence_in_scale(self):
        # with rho_prime = 0 the exact mean approaches its heavy-tail
        # limit monotonically as the contaminant scale grows
        gaps_k = []
        gaps_s = []
        # the finite-n mean carries an O(1/n) offset that is independent of
        # the contaminant scale, so the scale limit is taken at fixed n
        p_inf = params(rho=0.6, eps=0.02, lx=1e9, ly=1e9, rp=0.0)
        rs_scale_limit = expected_rs_contaminated(p_inf, 500)
        for lam in (10.0, 100.0, 1000.0):
            p = params(rho=0.6, eps=0.02, lx=lam, ly=lam, rp=0.0)
            gaps_k.append(abs(expected_rk_contaminated(p)
                              - rk_limit(p)))
            gaps_s.append(abs(expected_rs_contaminated(p, 500)
                              - rs_scale_limit))
        assert gaps_k[0] > gaps_k[1] > gaps_k[2]
        assert gaps_s[0] > gaps_s[1] > gaps_s[2]

    def test_expectations_bounded(self):
        for rho in (-0.95, -0.4, 0.0, 0.5, 0.9):
            for eps in (0.0, 0.1, 0.3):
                p = params(rho=rho, eps=eps, lx=5.0, ly=0.5, rp=0.8)
                assert -1.0 <= expected_rk_contaminated(p) <= 1.0
                assert -1.0 <= expected_rs_contaminated(p, 12) <= 1.0
