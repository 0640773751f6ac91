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


class TestMixtureCorrelations:
    def test_weights_sum_to_one(self):
        mc = mixture_correlations(params())
        assert sum(mc.pair_weights) == pytest.approx(1.0, abs=1e-15)
        assert sum(mc.triple_weights) == pytest.approx(1.0, abs=1e-15)

    def test_all_magnitudes_bounded(self):
        mc = mixture_correlations(params(rho=0.99, rp=0.99, lx=100, ly=100))
        for r in mc.pair + mc.triple:
            assert abs(r) <= 1

    def test_no_contamination_collapses(self):
        mc = mixture_correlations(params(eps=0.0))
        assert mc.pair_weights == (1.0, 0.0, 0.0, 0.0)
        assert mc.pair[0] == 0.5
        assert mc.triple[0] == 0.25

    def test_equal_scales_symmetric(self):
        p = params(lx=4.0, ly=4.0)
        mc = mixture_correlations(p)
        # the two single-contaminated pair patterns coincide
        assert mc.pair[1] == mc.pair[2]


class TestExpectations:
    def test_epsilon_zero_matches_uncontaminated(self):
        p = params(eps=0.0, rho=0.6)
        lm = lemma2_moments(0.6, 15)
        assert expected_rk_contaminated(p) == pytest.approx(lm["mean_rk"],
                                                            abs=1e-14)
        assert expected_rs_contaminated(p, 15) == pytest.approx(lm["mean_rs"],
                                                                abs=1e-14)

    def test_limit_forms(self):
        p = params(eps=0.05, rho=0.7, rp=0.2)
        rk_lim = 2 / math.pi * ((1 - 0.1) * math.asin(0.7)
                                + 0.1 * math.asin(0.2))
        rs_lim = 6 / math.pi * ((1 - 0.15) * math.asin(0.35)
                                + 0.05 * math.asin(0.2))
        assert expected_rk_contaminated(p, limit=True) == pytest.approx(
            rk_lim, abs=1e-14)
        assert expected_rs_contaminated(p, 50, limit=True) == pytest.approx(
            rs_lim, abs=1e-14)

    def test_exact_approaches_limit_for_heavy_tails(self):
        # large scale inflation and large n drive the exact value to
        # the epsilon-linear limit
        p = params(eps=0.01, rho=0.6, lx=1000.0, ly=1000.0, rp=0.0)
        exact = expected_rs_contaminated(p, 5000)
        lim = expected_rs_contaminated(p, 5000, limit=True)
        assert abs(exact - lim) < 5e-3

    def test_rival_differs(self):
        p = params(eps=0.05, rho=0.9, rp=0.0, lx=100.0, ly=100.0)
        assert abs(rival_formula_star(p)
                   - expected_rs_contaminated(p, 50, limit=True)) > 0.01

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
                              - expected_rk_contaminated(p, limit=True)))
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
