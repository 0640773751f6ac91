import math

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.correlation import PairedSample, kendall, pearson, spearman
from rankmoments.errors import DomainError, SizeError, TieError
from rankmoments.estimators import (EstimatorKind, are, bias_theoretical,
                                    crlb, estimate_from_coefficients,
                                    variance_theoretical)


def estimate(kind, sample):
    """Estimate of the population correlation from a tie-free sample,
    computing only the coefficients the estimator reads."""
    if kind is EstimatorKind.PEARSON:
        return estimate_from_coefficients(kind, r_p=pearson(sample))
    if kind is EstimatorKind.SPEARMAN:
        return estimate_from_coefficients(kind, r_s=spearman(sample))
    if kind is EstimatorKind.KENDALL:
        return estimate_from_coefficients(kind, r_k=kendall(sample))
    return estimate_from_coefficients(kind, r_s=spearman(sample),
                                      r_k=kendall(sample), n=sample.n)


class TestEstimate:
    def test_pearson_passthrough(self):
        assert estimate_from_coefficients(EstimatorKind.PEARSON, r_p=0.42) == 0.42

    def test_spearman_map(self):
        assert estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=1.0) == pytest.approx(
            1.0, abs=1e-15)
        assert estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=0.0) == 0.0

    def test_kendall_map(self):
        assert estimate_from_coefficients(EstimatorKind.KENDALL, r_k=2 / 3) == pytest.approx(
            math.sin(math.pi / 3), abs=1e-15)

    def test_mixed_equals_spearman_when_consistent(self):
        # if r_k happens to equal r_s the correction vanishes
        rs = 0.5
        assert estimate_from_coefficients(EstimatorKind.MIXED, r_s=rs, r_k=rs, n=10) == \
            estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=rs)

    def test_clamped(self):
        assert estimate_from_coefficients(EstimatorKind.MIXED, r_s=1.0, r_k=-1.0, n=3) >= -1.0
        assert estimate_from_coefficients(EstimatorKind.MIXED, r_s=-1.0, r_k=1.0, n=3) <= 1.0

    def test_mixed_needs_n(self):
        with pytest.raises(SizeError):
            estimate_from_coefficients(EstimatorKind.MIXED, r_s=0.5, r_k=0.4, n=2)

    def test_missing_inputs(self):
        with pytest.raises(DomainError):
            estimate_from_coefficients(EstimatorKind.SPEARMAN, r_k=0.5)


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
    def test_crlb(self):
        assert crlb(0.0, 10) == pytest.approx(0.1, abs=1e-15)
        assert crlb(1.0, 10) == 0.0

    def test_variances_exceed_bound(self):
        for kind in EstimatorKind:
            for rho in (0.0, 0.3, 0.6):
                v = variance_theoretical(kind, rho, 40)
                assert v >= crlb(rho, 40) * 0.99

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
        s = self.sample()
        assert estimate(EstimatorKind.PEARSON, s) == \
            estimate_from_coefficients(EstimatorKind.PEARSON, r_p=pearson(s))
        assert estimate(EstimatorKind.SPEARMAN, s) == \
            estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=spearman(s))
        assert estimate(EstimatorKind.KENDALL, s) == \
            estimate_from_coefficients(EstimatorKind.KENDALL, r_k=kendall(s))
        assert estimate(EstimatorKind.MIXED, s) == \
            estimate_from_coefficients(EstimatorKind.MIXED, r_s=spearman(s),
                                       r_k=kendall(s), n=s.n)

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
        assert estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=lo) <= \
            estimate_from_coefficients(EstimatorKind.SPEARMAN, r_s=hi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_kendall_map_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert estimate_from_coefficients(EstimatorKind.KENDALL, r_k=lo) <= \
            estimate_from_coefficients(EstimatorKind.KENDALL, r_k=hi)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
           st.floats(-1.0, 1.0), st.integers(5, 50))
    def test_mixed_map_monotone_in_each_argument(self, a, b, rk, n):
        lo, hi = min(a, b), max(a, b)
        # increasing in r_s for fixed r_k, decreasing in r_k for fixed r_s
        assert estimate_from_coefficients(
            EstimatorKind.MIXED, r_s=lo, r_k=rk, n=n) <= \
            estimate_from_coefficients(EstimatorKind.MIXED, r_s=hi, r_k=rk, n=n)
        assert estimate_from_coefficients(
            EstimatorKind.MIXED, r_s=rk, r_k=hi, n=n) <= \
            estimate_from_coefficients(EstimatorKind.MIXED, r_s=rk, r_k=lo, n=n)


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
