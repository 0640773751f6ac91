import math

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.correlation import (PairedSample, coefficients_rows,
                                     kendall, pearson, spearman)
from rankmoments.errors import DomainError, SizeError, TieError
from rankmoments.estimators import (EstimatorKind, are, bias_theoretical,
                                    estimates, variance_theoretical)


def rho_hat(kind, r_p=0.0, r_s=0.0, r_k=0.0, n=10):
    """One estimate from the coefficients it reads; the others are 0."""
    return estimates(r_p, r_s, r_k, n)[kind.value]


def estimate(kind, sample):
    """Estimate of the population correlation from a tie-free sample."""
    return estimates(pearson(sample), spearman(sample), kendall(sample),
                     sample.n)[kind.value]


class TestEstimate:
    def test_pearson_passthrough(self):
        assert rho_hat(EstimatorKind.PEARSON, r_p=0.42) == 0.42

    def test_spearman_map(self):
        assert rho_hat(EstimatorKind.SPEARMAN, r_s=1.0) == pytest.approx(
            1.0, abs=1e-15)
        assert rho_hat(EstimatorKind.SPEARMAN, r_s=0.0) == 0.0

    def test_kendall_map(self):
        assert rho_hat(EstimatorKind.KENDALL, r_k=2 / 3) == pytest.approx(
            math.sin(math.pi / 3), abs=1e-15)

    def test_mixed_equals_spearman_when_consistent(self):
        # if r_k happens to equal r_s the correction vanishes
        got = estimates(0.0, 0.5, 0.5, 10)
        assert got["mixed"] == got["spearman"]

    def test_clamped(self):
        assert rho_hat(EstimatorKind.MIXED, r_s=1.0, r_k=-1.0, n=3) >= -1.0
        assert rho_hat(EstimatorKind.MIXED, r_s=-1.0, r_k=1.0, n=3) <= 1.0

    def test_mixed_needs_n(self):
        with pytest.raises(SizeError):
            estimates(0.3, 0.5, 0.4, 2)

    def test_keys_are_kind_values(self):
        assert list(estimates(0.1, 0.2, 0.3, 10)) == [
            k.value for k in EstimatorKind]


class TestAre:
    def test_at_zero(self):
        assert are(EstimatorKind.SPEARMAN, 0.0) == pytest.approx(
            9 / math.pi ** 2, abs=1e-10)
        assert are(EstimatorKind.KENDALL, 0.0) == pytest.approx(
            9 / math.pi ** 2, abs=1e-10)

    def test_at_one(self):
        assert are(EstimatorKind.SPEARMAN, 1.0) == pytest.approx(
            (15 + 11 * math.sqrt(5)) / 57, abs=1e-9)
        assert are(EstimatorKind.KENDALL, 1.0) == pytest.approx(
            3 * math.sqrt(3) / (2 * math.pi), abs=1e-12)

    def test_continuity_at_one(self):
        # the rank efficiency is a 0/0 ratio at the endpoint, so the
        # interior formula loses precision closer than ~1e-4 to 1
        assert are(EstimatorKind.SPEARMAN, 1 - 1e-4) == pytest.approx(
            are(EstimatorKind.SPEARMAN, 1.0), abs=1e-3)
        assert are(EstimatorKind.KENDALL, 1 - 1e-9) == pytest.approx(
            are(EstimatorKind.KENDALL, 1.0), abs=1e-6)

    @pytest.mark.parametrize("delta", [1e-10, 1e-11, 1e-12])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_kendall_tends_to_its_limit(self, delta, sign):
        # 9 (1 - rho^2) / (pi^2 - 36 asin(rho / 2)^2) cancels as |rho| -> 1
        # and errs by up to 2e-5 here; the true value lies about
        # 0.18 * delta from the limit
        assert abs(are(EstimatorKind.KENDALL, sign * (1 - delta))
                   - 3 * math.sqrt(3) / (2 * math.pi)) <= 1e-9

    def test_kendall_dominates_spearman(self):
        for k in range(0, 101, 5):
            rho = k / 100
            assert are(EstimatorKind.KENDALL, rho) >= \
                are(EstimatorKind.SPEARMAN, rho) - 1e-12

    def test_even_symmetry(self):
        assert are(EstimatorKind.KENDALL, -0.6) == pytest.approx(
            are(EstimatorKind.KENDALL, 0.6), abs=1e-12)
        assert are(EstimatorKind.SPEARMAN, -0.6) == pytest.approx(
            are(EstimatorKind.SPEARMAN, 0.6), abs=1e-10)

    def test_pearson_reference(self):
        assert are(EstimatorKind.PEARSON, 0.3) == 1.0

    def test_mixed_shares_spearman_limit(self):
        assert are(EstimatorKind.MIXED, 0.4) == pytest.approx(
            are(EstimatorKind.SPEARMAN, 0.4), abs=1e-12)


class TestMoments:
    def test_variances_exceed_bound(self):
        # the information bound for rho from n bivariate normal pairs
        for kind in EstimatorKind:
            for rho in (0.0, 0.3, 0.6):
                v = variance_theoretical(kind, rho, 40)
                assert v >= (1 - rho ** 2) ** 2 / 40 * 0.99

    def test_bias_signs(self):
        # all four biases are negative for positive rho
        for kind in EstimatorKind:
            assert bias_theoretical(kind, 0.5, 20) < 0

    def test_bias_odd(self):
        for kind in EstimatorKind:
            assert bias_theoretical(kind, -0.5, 20) == pytest.approx(
                -bias_theoretical(kind, 0.5, 20), abs=1e-10)

    def test_unbiased_at_zero(self):
        for kind in EstimatorKind:
            assert bias_theoretical(kind, 0.0, 20) == pytest.approx(
                0.0, abs=1e-12)

    def test_ordering_small_n(self):
        # mixed has the smallest theoretical bias magnitude of the four
        biases = {k: abs(bias_theoretical(k, 0.6, 10)) for k in EstimatorKind}
        assert biases[EstimatorKind.MIXED] < biases[EstimatorKind.PEARSON] \
            < biases[EstimatorKind.KENDALL] < biases[EstimatorKind.SPEARMAN]

    def test_domain(self):
        with pytest.raises(DomainError):
            bias_theoretical(EstimatorKind.PEARSON, 1.2, 10)
        with pytest.raises(SizeError):
            variance_theoretical(EstimatorKind.MIXED, 0.5, 2)


class TestEstimateFromSample:
    def sample(self):
        x = np.array([0.1, -1.2, 0.7, 2.3, -0.4, 1.1])
        y = np.array([0.3, -0.9, 1.5, 2.0, -1.1, 0.2])
        return PairedSample(x=x, y=y)

    def test_matches_coefficient_path(self):
        # a sample alone (float coefficients) and as one row of a Monte
        # Carlo block (array coefficients) give the same bits
        s = self.sample()
        block = estimates(*coefficients_rows(s.x[None], s.y[None]), s.n)
        for kind in EstimatorKind:
            assert estimate(kind, s) == block[kind.value][0]

    def test_all_kinds_in_range(self):
        s = self.sample()
        for kind in EstimatorKind:
            assert -1.0 <= estimate(kind, s) <= 1.0

    def test_mixed_rejects_tiny_sample(self):
        s = PairedSample(x=np.array([1.0, 2.0]), y=np.array([2.0, 1.0]))
        with pytest.raises(SizeError):
            estimate(EstimatorKind.MIXED, s)

    def test_ties_propagate(self):
        s = PairedSample(x=np.array([1.0, 1.0, 2.0, 3.0]),
                         y=np.array([4.0, 3.0, 2.0, 1.0]))
        with pytest.raises(TieError):
            estimate(EstimatorKind.SPEARMAN, s)


class TestMapMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_spearman_map_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert rho_hat(EstimatorKind.SPEARMAN, r_s=lo) <= \
            rho_hat(EstimatorKind.SPEARMAN, r_s=hi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_kendall_map_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert rho_hat(EstimatorKind.KENDALL, r_k=lo) <= \
            rho_hat(EstimatorKind.KENDALL, r_k=hi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), st.integers(5, 50))
    def test_mixed_map_monotone_in_each_argument(self, a, b, rk, n):
        lo, hi = min(a, b), max(a, b)
        # increasing in r_s for fixed r_k, decreasing in r_k for fixed r_s
        assert rho_hat(EstimatorKind.MIXED, r_s=lo, r_k=rk, n=n) <= \
            rho_hat(EstimatorKind.MIXED, r_s=hi, r_k=rk, n=n)
        assert rho_hat(EstimatorKind.MIXED, r_s=rk, r_k=hi, n=n) <= \
            rho_hat(EstimatorKind.MIXED, r_s=rk, r_k=lo, n=n)


class TestBiasAnchors:
    def test_zero_at_endpoints_and_origin(self):
        for kind in EstimatorKind:
            for rho in (-1.0, 0.0, 1.0):
                assert bias_theoretical(kind, rho, 12) == pytest.approx(
                    0.0, abs=1e-9)

    def test_pearson_closed_form_point(self):
        assert bias_theoretical(EstimatorKind.PEARSON, 0.5, 10) == \
            pytest.approx(-0.01875, abs=1e-15)

    def test_ordering_at_half(self):
        biases = {k: abs(bias_theoretical(k, 0.5, 10)) for k in EstimatorKind}
        assert biases[EstimatorKind.MIXED] < biases[EstimatorKind.PEARSON] \
            < biases[EstimatorKind.KENDALL] < biases[EstimatorKind.SPEARMAN]

    def test_bias_opposes_rho(self):
        for kind in EstimatorKind:
            for k in range(-10, 11):
                rho = k / 10
                assert rho * bias_theoretical(kind, rho, 15) <= 1e-12


class TestAreRange:
    def test_unit_interval_fine_grid(self):
        for k in range(0, 101):
            rho = k / 100
            for kind in (EstimatorKind.SPEARMAN, EstimatorKind.KENDALL):
                val = are(kind, rho)
                assert 0.0 < val <= 1.0 + 1e-12
            assert are(EstimatorKind.KENDALL, rho) >= \
                are(EstimatorKind.SPEARMAN, rho) - 1e-12
