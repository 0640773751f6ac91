import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from rankmoments import binormal
from rankmoments.binormal import (cov_rs_rk_asymptotic,
                                  cov_rs_rk_exact, cov_series_asymptotic,
                                  lemma2_moments, omegas, pattern_w,
                                  var_rs_asymptotic, var_rs_exact)
from rankmoments.cli import main
from rankmoments.errors import CrossCheckError, DomainError
from rankmoments.orthant import CorrelationMatrix4

SRC = Path(__file__).resolve().parent.parent / "src"


class TestAnchors:
    def test_omegas_at_zero(self):
        om = omegas(0.0)
        assert om.omega1 == pytest.approx(1 / 9, abs=1e-9)
        assert om.omega2 == pytest.approx(5 / 9, abs=1e-9)
        assert om.omega3 == pytest.approx(1 / 18, abs=1e-9)

    def test_omegas_at_one(self):
        om = omegas(1.0)
        assert om.omega1 == pytest.approx(1.0, abs=1e-9)
        assert om.omega2 == pytest.approx(16 / 3, abs=1e-9)
        assert om.omega3 == pytest.approx(0.5, abs=1e-9)

    def test_omega4_endpoints(self):
        assert omegas(0.0).omega4 == 0.0
        assert omegas(1.0).omega4 == pytest.approx(2 * math.pi ** 2 / 9,
                                                   abs=1e-9)

    def test_omega4_even(self):
        # omega3 is even in rho, so the Plackett integrand is odd in theta
        # and its integral from 0 is even
        assert omegas(-0.4).omega4 == pytest.approx(omegas(0.4).omega4,
                                                    abs=1e-11)


# The paper's form of omega4: five 1-D integrals, the first over
# [0, asin(rho)] in the sine variable, the others over [0, rho].
def _omega4_f1(t):
    x = math.sin(t)
    return math.asin(x / 3) + 2 * math.asin(x / math.sqrt(3))


def _omega4_f2(x):
    return -2 * math.asin(x / 2 * math.sqrt((1 - x * x) / (9 - 3 * x * x))) \
        / math.sqrt(4 - x * x)


def _omega4_f3(x):
    return math.asin(x / 2 * (5 - x * x) / (3 - x * x)) / math.sqrt(4 - x * x)


def _omega4_f4(x):
    return -2 * math.asin(x * math.sqrt((1 - x * x) / (12 - 6 * x * x))) \
        / math.sqrt(4 - x * x)


def _omega4_f5(x):
    return 2 * math.asin(x * math.sqrt((3 - x * x) / (4 - 2 * x * x))) \
        / math.sqrt(4 - x * x)


class TestOmega4Oracle:
    """omega4 from the Plackett route against the paper's five integrals,
    integrated by QUADPACK (scipy), an engine independent of the
    package's."""

    @staticmethod
    def _oracle(rho):
        pieces = [(_omega4_f1, math.asin(rho))] + [
            (f, rho) for f in (_omega4_f2, _omega4_f3, _omega4_f4, _omega4_f5)]
        total = 0.0
        with warnings.catch_warnings():
            # QUADPACK flags roundoff when 1e-14 is near its limit; the
            # error estimate it returns is checked instead
            warnings.simplefilter("ignore", IntegrationWarning)
            for f, upper in pieces:
                value, err = quad(f, 0.0, upper, epsabs=1e-14, epsrel=0.0,
                                  limit=200)
                assert err < 1e-13
                total += value
        return total

    @pytest.mark.parametrize("rho", [-1.0, -0.7, 0.2, 0.6, 0.9, 0.99, 1.0])
    def test_matches_paper_form(self, rho):
        assert abs(omegas(rho).omega4 - self._oracle(rho)) <= 1e-12


class TestWIdentities:
    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.75, 0.95])
    def test_identities(self, rho):
        w = pattern_w("deghlmpq", rho)
        assert w["e"] == pytest.approx(2 * w["d"], abs=1e-10)
        assert w["g"] == pytest.approx(w["p"], abs=1e-10)
        assert w["h"] == pytest.approx(w["q"], abs=1e-10)
        assert w["m"] == pytest.approx(2 * w["l"] + 1 / 3, abs=1e-10)

    def test_omega3_integral_identity(self):
        for rho in (0.2, 0.6, 0.9):
            om = omegas(rho)
            assert om.omega3 == pytest.approx(
                1 / 18 + 2 * om.omega4 / math.pi ** 2, abs=1e-10)


class TestVarianceSpecialCases:
    @pytest.mark.parametrize("n", [4, 7, 10, 25, 100])
    def test_independent_case(self, n):
        assert var_rs_exact(0.0, n) == pytest.approx(1 / (n - 1), abs=1e-12)
        assert cov_rs_rk_exact(0.0, n) == pytest.approx(
            2 * (n + 1) / (3 * n * (n - 1)), abs=1e-12)

    @pytest.mark.parametrize("n", [4, 10, 50])
    def test_degenerate_case(self, n):
        assert var_rs_exact(1.0, n) == pytest.approx(0.0, abs=1e-9)
        assert var_rs_exact(-1.0, n) == pytest.approx(0.0, abs=1e-9)
        assert cov_rs_rk_exact(1.0, n) == pytest.approx(0.0, abs=1e-9)

    def test_asymptotic_approaches_exact(self):
        rho = 0.5
        for n in (200, 2000):
            exact = var_rs_exact(rho, n)
            asym = var_rs_asymptotic(rho, n)
            assert abs(exact - asym) < 10 / n ** 2

    def test_even_in_rho(self):
        assert var_rs_exact(0.6, 15) == pytest.approx(var_rs_exact(-0.6, 15),
                                                      abs=1e-11)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            var_rs_exact(1.5, 10)
        with pytest.raises(DomainError):
            var_rs_exact(0.5, 3)
        with pytest.raises(DomainError):
            cov_rs_rk_exact(0.5, 3)


class TestCovariance:
    def test_two_routes_agree(self):
        # every omegas pass checks Childs's omega3 against the Plackett
        # route and raises on disagreement
        for rho in (0.1, 0.5, 0.8):
            cov_rs_rk_exact(rho, 12)

    def test_disagreement_raises_cross_check_error(self, monkeypatch):
        monkeypatch.setattr("rankmoments.binormal._ROUTE_TOL", -1.0)
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        with pytest.raises(CrossCheckError):
            cov_rs_rk_exact(0.5, 20)

    def test_wrong_plackett_weight_trips_the_guard(self, monkeypatch):
        # a mutated second route: 1.1 W_h in place of W_h
        monkeypatch.setattr("rankmoments.binormal._OMEGA3_TERMS",
                            binormal._plackett_terms({"g": 0.5, "h": 1.1}))
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        with pytest.raises(CrossCheckError, match=r"rho=0\.5: Childs"):
            omegas(0.5)
        assert binormal._omega_cache == {}

    @pytest.mark.parametrize("n", [0, -3])
    def test_asymptotic_moments_reject_small_n(self, n):
        with pytest.raises(DomainError):
            cov_rs_rk_asymptotic(0.5, n)
        with pytest.raises(DomainError):
            var_rs_asymptotic(0.5, n)

    def test_series_matches_integral_near_zero(self):
        n = 100
        for k in range(-6, 7):
            rho = k * 0.05
            a = n * cov_rs_rk_asymptotic(rho, n)
            b = n * cov_series_asymptotic(rho, n)
            assert abs(a - b) < 1e-5

    def test_sign(self):
        # positively correlated coefficients for moderate rho
        assert cov_rs_rk_exact(0.5, 20) > 0


class TestLemma2:
    def test_rho_zero(self):
        lm = lemma2_moments(0.0, 10)
        assert lm["mean_rp"] == 0.0
        assert lm["mean_rs"] == 0.0
        assert lm["mean_rk"] == 0.0
        assert lm["var_rp"] == pytest.approx(1 / 9, abs=1e-15)
        assert lm["var_rk"] == pytest.approx(
            2 / 90 * (1 + 2 * 8 / 9), abs=1e-12)

    def test_rho_one(self):
        lm = lemma2_moments(1.0, 10)
        assert lm["mean_rk"] == pytest.approx(1.0, abs=1e-15)
        assert lm["var_rk"] == pytest.approx(0.0, abs=1e-12)
        assert lm["var_rp"] == 0.0

    def test_mean_rs_between_endpoints(self):
        lm = lemma2_moments(0.5, 10)
        lo, hi = sorted((6 / math.pi * math.asin(0.25),
                         2 / math.pi * math.asin(0.5)))
        assert lo <= lm["mean_rs"] <= hi


class TestPatternMatrices:
    @pytest.mark.parametrize("label", sorted(binormal._PATTERNS))
    def test_valid_on_whole_domain(self, label):
        same, cross = binormal._PATTERNS[label]
        for rho in np.linspace(-1.0, 1.0, 41):
            CorrelationMatrix4(same + rho * cross)

    def test_omegas_evaluates_eight_w(self, monkeypatch):
        pattern_w("c", 0.0)  # the one-time validation runs here
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        calls = []
        w_legs = binormal.w_legs

        def counted(ms):
            calls.append(ms)
            return w_legs(ms)

        monkeypatch.setattr("rankmoments.binormal.w_legs", counted)
        rho = 0.4321
        omegas(rho)
        assert len(calls) == 1
        expected = [same + rho * cross for same, cross in
                    (binormal._PATTERNS[label] for label in "cdfghlno")]
        np.testing.assert_array_equal(calls[0], np.stack(expected))


class TestOmegaGrid:
    """omegas over a sequence: chunked lock-step passes, one cache."""

    RHOS = [0.0, 1.0, -1.0, 0.999999, -0.999999, 0.37, -0.7, 0.123456,
            0.5, 0.99, 0.0, 0.37]

    @staticmethod
    def _fields(values):
        return [(v.omega1, v.omega2, v.omega3, v.omega4) for v in values]

    def test_sequence_matches_single_calls(self, monkeypatch):
        pattern_w("c", 0.0)  # the one-time validation runs here
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        monkeypatch.setattr("rankmoments.binormal._RHOS_PER_PASS", 3)
        grid = omegas(self.RHOS)
        assert isinstance(grid, list) and len(grid) == len(self.RHOS)
        hits = omegas(self.RHOS)
        single = []
        for rho in self.RHOS:
            monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
            single.append(omegas(rho))
        assert self._fields(grid) == self._fields(hits) == self._fields(single)
        assert omegas(np.array(self.RHOS[:3])) == grid[:3]
        assert grid[1].omega1 == 1.0 and grid[0].omega4 == 0.0

    def test_bad_rho_anywhere_in_the_grid(self, monkeypatch):
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        with pytest.raises(DomainError):
            omegas([0.5, float("nan")])
        with pytest.raises(DomainError):
            omegas([0.5, -1.5])
        assert binormal._omega_cache == {}

    def test_memory_bounded_on_long_grid(self, monkeypatch):
        # chunked passes whose panel storage grows with the rounds run: an
        # unchunked pass, or a dense MAX_SUBDIVISIONS-wide panel table,
        # needs several times this bound
        pattern_w("c", 0.0)  # the one-time validation runs here
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        grid = np.linspace(-1.0, 1.0, 1001).tolist()
        tracemalloc.start()
        try:
            values = omegas(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == 1001
        assert peak < 3 * 2 ** 20

    def test_independent_of_blas_kernel(self):
        # no value may depend on which OpenBLAS kernel DYNAMIC_ARCH picks
        code = ("import numpy as np\n"
                "from rankmoments.binormal import omegas\n"
                "for v in omegas(np.linspace(-1, 1, 13).tolist()"
                " + [0.999999, 0.123456]):\n"
                "    print(repr((v.omega1, v.omega2, v.omega3, v.omega4)))\n")
        outputs = []
        for coretype in (None, "Prescott"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
            env.pop("OPENBLAS_CORETYPE", None)
            if coretype is not None:
                env["OPENBLAS_CORETYPE"] = coretype
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=False)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 15
        assert outputs[0] == outputs[1]


class TestTables:
    """The omega table as the ``tables`` command writes it."""

    @staticmethod
    def _table(grid, capsys):
        assert main(["tables", "--grid", grid]) == 0
        return capsys.readouterr().out

    def test_tabulate_and_format(self, capsys):
        text = self._table("0(0.5)1", capsys)
        lines = text.splitlines()
        assert lines[0] == "rho,omega1,omega2,omega3"
        assert lines[1] == "0.00,0.1111111111,0.5555555556,0.0555555556"
        assert len(lines) == 4
        assert text.endswith("\n") and "\r" not in text

    def test_deterministic(self, capsys, monkeypatch):
        a = self._table("0.3(0.4)0.7", capsys)
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        b = self._table("0.3(0.4)0.7", capsys)
        assert a == b

    def test_no_warnings(self, capsys, monkeypatch):
        # no integrand evaluation may warn, here or in the one-time
        # validation; its rho = 1 matrices have exactly coincident pairs,
        # and a leg built for one would divide by zero, so this is the
        # test that catches a missed closed-form reduction
        monkeypatch.setattr("rankmoments.binormal._omega_cache", {})
        monkeypatch.setattr("rankmoments.binormal._validation_done", False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["tables", "--grid", "0(0.01)1"]) == 0
            omegas(-0.7)
            omegas(0.999999)
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 102 and err == ""


class TestPermutationOracle:
    """Under independence every rank permutation is equally likely, so the
    moments of the coefficients can be enumerated exactly with rationals."""

    @staticmethod
    def _enumerate(n):
        from fractions import Fraction
        from itertools import permutations

        m = Fraction(n * (n * n - 1))
        pairs_total = n * (n - 1) // 2
        sum_s = sum_s2 = sum_sk = Fraction(0)
        for perm in permutations(range(1, n + 1)):
            d2 = sum((i + 1 - q) ** 2 for i, q in enumerate(perm))
            r_s = 1 - Fraction(6 * d2) / m
            conc = sum(1 for i in range(n) for j in range(i + 1, n)
                       if perm[i] < perm[j])
            r_k = Fraction(2 * conc - pairs_total, pairs_total)
            sum_s += r_s
            sum_s2 += r_s * r_s
            sum_sk += r_s * r_k
        total = math.factorial(n)
        mean_s = sum_s / total
        return (sum_s2 / total - mean_s ** 2,
                sum_sk / total)  # mean r_k is 0 by symmetry

    @pytest.mark.parametrize("n", [4, 5])
    def test_independence_moments(self, n):
        from fractions import Fraction
        var_s, cov_sk = self._enumerate(n)
        assert var_s == Fraction(1, n - 1)
        assert cov_sk == Fraction(2 * (n + 1), 3 * n * (n - 1))
        assert var_rs_exact(0.0, n) == pytest.approx(float(var_s), abs=1e-13)
        assert cov_rs_rk_exact(0.0, n) == pytest.approx(
            float(cov_sk), abs=1e-13)


class TestCauchySchwarz:
    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.3, 0.7, 0.95])
    @pytest.mark.parametrize("n", [4, 8, 20, 60])
    def test_cov_bounded_by_variances(self, rho, n):
        cov = cov_rs_rk_exact(rho, n)
        var_s = var_rs_exact(rho, n)
        var_k = lemma2_moments(rho, n)["var_rk"]
        assert cov * cov <= var_s * var_k * (1 + 1e-10)
