import math

import pytest

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments.binormal import omegas, var_rs_asymptotic
from rankmoments.cli import parse_grid
from rankmoments.correlation import (PairedSample, coefficients_rows,
                                     kendall, pearson, spearman)
from rankmoments.errors import DomainError, SizeError, TieError
from rankmoments.estimators import (EstimatorKind, are, bias_theoretical,
                                    estimates, variance_theoretical)

from oracles import (are_rank_oracle, bias_oracle, var_rs_asymptotic_oracle,
                     variance_oracle)


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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: 9 pi^2 omega1 - 324 asin(rho / 2)^2 cancels as "
        "|rho| -> 1, and the value at 1 - 1e-10 reads -1.69e-5"))
    def test_spearman_tends_to_its_limit(self):
        value = are(EstimatorKind.SPEARMAN, 0.9999999999)
        assert 0.0 < value <= 1.0
        assert abs(value - 0.6946797851) <= 1e-3

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

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_huge_n_rejected(self, kind):
        # var(r_S) would divide by n^4 as a float, which overflows
        bias_theoretical(kind, 0.5, 2 ** 53)
        for n in (2 ** 53 + 1, 10 ** 80):
            with pytest.raises(DomainError, match="at most 2"):
                variance_theoretical(kind, 0.5, n)
            with pytest.raises(DomainError, match="at most 2"):
                bias_theoretical(kind, 0.5, n)


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


class TestAgainstPerKindFormulas:
    """The delta-method body against the hand-expanded formula of each
    kind it replaced, and Spearman's limiting variance against the two
    bodies that wrote it out."""

    GRID = parse_grid("-1(0.01)1")
    NS = (4, 5, 10, 20, 100, 1000, 10 ** 6)

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_bias_and_variance(self, kind):
        omegas(self.GRID)
        for n in self.NS:
            for rho in self.GRID:
                for got, want in (
                        (bias_theoretical(kind, rho, n),
                         bias_oracle(kind.value, rho, n)),
                        (variance_theoretical(kind, rho, n),
                         variance_oracle(kind.value, rho, n))):
                    assert abs(got - want) <= 4e-15 * abs(want), (rho, n)

    def test_var_rs_asymptotic(self):
        omegas(self.GRID)
        for n in self.NS:
            for rho in self.GRID:
                want = max(var_rs_asymptotic_oracle(rho, n), 0.0)
                assert abs(var_rs_asymptotic(rho, n) - want) <= 2e-15

    @pytest.mark.parametrize("kind", [EstimatorKind.SPEARMAN,
                                      EstimatorKind.MIXED])
    def test_are_bits(self, kind):
        # the near-one points, where the limit cancels, keep their
        # (wrong) values too
        grid = parse_grid("-1(0.001)1") + [
            0.9999999, 0.99999999, 0.9999999999, -0.99999999999]
        omegas(grid)
        for rho in grid:
            assert are(kind, rho).hex() == are_rank_oracle(rho).hex(), rho
