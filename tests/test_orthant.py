import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import qmc

from rankmoments import binormal
from rankmoments.errors import DomainError
from rankmoments.orthant import (_PSD_TOL, CorrelationMatrix4,
                                 _asin_ratio, _plackett_asin,
                                 _plackett_coeffs, _psd_within_tol,
                                 asin_clamped, orthant_p3, orthant_p4,
                                 w_integral)
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
    def test_asin_clamp_margin(self):
        # roundoff within CLAMP_EPS beyond 1 is clamped, more is an error
        assert asin_clamped(1 + 2e-16) == math.pi / 2
        assert asin_clamped(-1 - CLAMP_EPS) == -math.pi / 2
        for bad in (1 + 2 * CLAMP_EPS, -1.5, math.nan):
            with pytest.raises(DomainError):
                asin_clamped(bad)

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
        # Z3 == Z4, neither of them Z1: the orthant of (Z1, Z2, Z3)
        (mat(r12=0.5, r13=0.3, r14=0.3, r23=-0.2, r24=-0.2, r34=1.0),
         orthant_p3(0.5, 0.3, -0.2)),
        # Z3 == -Z4: disjoint half-spaces
        (mat(r12=0.5, r13=0.3, r14=-0.3, r23=-0.2, r24=0.2, r34=-1.0), 0.0),
    ], ids=["Z2=Z3", "Z1=Z2=Z3", "Z2=-Z3", "Z3=Z4", "Z3=-Z4"])
    def test_partner_coincides(self, m, expected):
        # an exactly coincident pair is reduced in closed form: the P3 of
        # the other three variables, or 0 for an opposed pair
        assert orthant_p4(m) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-0.99, 0.99), st.floats(-0.99, 0.99),
           st.floats(-0.99, 0.99),
           st.sampled_from([(a, b) for a in range(3) for b in range(a + 1, 4)]),
           st.sampled_from([1.0, -1.0]))
    def test_coincident_pair_is_p3(self, p12, p13, p23, pair, sign):
        # a random 3x3 correlation matrix (from partial correlations) with
        # Z_b an exact signed copy of Z_a, so that r_ab == sign
        r23 = p23 * math.sqrt((1 - p12 * p12) * (1 - p13 * p13)) + p12 * p13
        small = np.array([[1.0, p12, p13], [p12, 1.0, r23], [p13, r23, 1.0]])
        a, b = pair
        keep = [c for c in range(4) if c != b]
        big = np.eye(4)
        big[np.ix_(keep, keep)] = small
        big[b, keep] = big[keep, b] = sign * big[a, keep]
        expected = orthant_p3(p12, p13, r23) if sign > 0 else 0.0
        got = orthant_p4(CorrelationMatrix4(rho=big))
        assert got == pytest.approx(expected, abs=1e-12)

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
        # the patterns at rho = 1 include exactly coincident pairs, so the
        # stack mixes closed-form rows and rows summed from legs
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


class TestPsdCheck:
    """The exact leading-minor test against eigvalsh and at the tolerance."""

    def test_agrees_with_eigvalsh_away_from_boundary(self):
        rng = np.random.default_rng(21)
        verdicts = []
        for _ in range(2000):
            k = int(rng.choice([3, 4]))
            a = rng.standard_normal((k, int(rng.integers(1, k + 2))))
            s = a @ a.T + rng.uniform(-1.0, 1.0) * np.eye(k)
            d = np.sqrt(np.abs(np.diag(s))) + 1e-3
            r = s / np.outer(d, d)
            np.fill_diagonal(r, 1.0)
            lam = np.linalg.eigvalsh(r).min()
            if abs(lam - _PSD_TOL) > 1e-8:
                verdicts.append(lam >= _PSD_TOL)
                assert _psd_within_tol(r) == verdicts[-1]
        assert 500 < sum(verdicts) < len(verdicts) - 500

    def test_pattern_matrices_accepted(self):
        # the grid -1(0.01)1 includes the singular matrices at rho = +-1
        for same, cross in binormal._PATTERNS.values():
            for rho in np.arange(-100, 101) / 100:
                CorrelationMatrix4(same + rho * cross)

    def test_rank_two_accepted(self):
        # two directions only: the shifted 4x4 minor is of order 1e-20,
        # far below the roundoff of a floating-point determinant
        rng = np.random.default_rng(22)
        for _ in range(200):
            v = rng.standard_normal((4, 2))
            v /= np.linalg.norm(v, axis=1)[:, None]
            r = v @ v.T
            r = (r + r.T) / 2
            np.fill_diagonal(r, 1.0)
            CorrelationMatrix4(r)
            orthant_p3(r[0, 1], r[0, 2], r[1, 2])

    @pytest.mark.parametrize("k", [3, 4])
    def test_tolerance_edge(self, k):
        # equicorrelation r has smallest eigenvalue 1 + (k - 1) r
        def equi(lam):
            r = (lam - 1) / (k - 1)
            return np.full((k, k), r) + (1 - r) * np.eye(k)
        assert _psd_within_tol(equi(0.0))
        assert _psd_within_tol(equi(0.1 * _PSD_TOL))
        assert not _psd_within_tol(equi(10 * _PSD_TOL))

    @pytest.mark.parametrize("k", [3, 4])
    def test_exactly_singular_shift_rejected(self, k):
        # [[t, 2t], [2t, t]] has eigenvalues 3t and -t = _PSD_TOL exactly:
        # the smallest eigenvalue does not exceed the tolerance
        t = -_PSD_TOL
        m = np.eye(k)
        m[:2, :2] = [[t, 2 * t], [2 * t, t]]
        assert not _psd_within_tol(m)
        m[0, 0] = m[1, 1] = 2 * t
        assert _psd_within_tol(m)

    def test_non_psd_3x3_rejected(self):
        # the 4x4 case is in TestP4.test_matrix_validation
        with pytest.raises(DomainError):
            orthant_p3(0.9, 0.9, -0.9)


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


def z1_row_path(r):
    """(same, cross) of the path that scales Z1's row of r up from 0."""
    row = np.zeros((4, 4), dtype=bool)
    row[0, 1:] = row[1:, 0] = True
    return np.where(row, 0.0, r), np.where(row, r, 0.0)


def entry_form_asin(same, cross, i, j, t):
    """arcsin(r_kl.ij) of same + t * cross, from the entries of the matrix
    at t: the partial covariance algebra written out once more."""
    k, l = (a for a in range(4) if a not in (i, j))
    r = same + t[:, None, None] * cross
    r_ij, r_ik, r_il, r_jk, r_jl, r_kl = (
        r[:, a, b] for a, b in ((i, j), (i, k), (i, l), (j, k), (j, l), (k, l)))
    q = 1 - r_ij * r_ij
    c_kk = q - (r_ik * r_ik + r_jk * r_jk - 2 * r_ij * r_ik * r_jk)
    c_ll = q - (r_il * r_il + r_jl * r_jl - 2 * r_ij * r_il * r_jl)
    c_kl = q * r_kl - (r_ik * r_il + r_jk * r_jl
                       - r_ij * (r_ik * r_jl + r_jk * r_il))
    return np.arcsin(c_kl / np.sqrt(c_kk * c_ll))


def pattern_paths():
    """(same, cross, i, j) of every Plackett term on the rho paths of the
    twelve patterns."""
    for same, cross in binormal._PATTERNS.values():
        for i, j in zip(*np.triu_indices(4, 1)):
            if cross[i, j] != 0.0:
                yield same, cross, i, j


class TestIntegrandTerms:
    def test_positive_factors_and_feasible_ratio(self):
        # the two conditional variances and the partial correlation of
        # each Childs leg, from the coefficients that the arcsine
        # integrand of w_integral evaluates
        rng = np.random.default_rng(7)
        u = np.linspace(0.0, 0.999, 40)
        u2 = u * u
        for _ in range(20):
            same, cross = z1_row_path(random_correlation(rng).rho)
            for j in (1, 2, 3):
                _, d0, d1, d2, d3, b0, b2, g0, g2 = _plackett_coeffs(
                    same, cross, 0, j)
                beta = np.sqrt(np.maximum(b0 - b2 * u2, 0.0))
                gamma = np.sqrt(np.maximum(g0 - g2 * u2, 0.0))
                assert (beta > 0).all() and (gamma > 0).all()
                num = d0 + d2 * u2 + u * (d1 + d3 * u2)
                assert (np.abs(num / (beta * gamma)) <= 1 + CLAMP_EPS).all()

    def test_childs_legs_match_entry_form(self):
        # Z1's row path splits the variables 1+3: the numerator is even
        rng = np.random.default_rng(8)
        t = np.linspace(0.0, 0.999, 40)
        for _ in range(20):
            same, cross = z1_row_path(random_correlation(rng).rho)
            for j in (1, 2, 3):
                _, *coeffs = _plackett_coeffs(same, cross, 0, j)
                assert coeffs[1] == 0.0 and coeffs[3] == 0.0
                np.testing.assert_allclose(
                    _plackett_asin(t, t * t, coeffs),
                    entry_form_asin(same, cross, 0, j, t), rtol=0, atol=1e-13)

    def test_rho_paths_match_entry_form(self):
        # the rho path splits the x and y differences 2+2: the numerator
        # is odd
        t = np.linspace(0.0, 0.999, 40)
        paths = list(pattern_paths())
        assert len(paths) > 12
        for same, cross, i, j in paths:
            _, *coeffs = _plackett_coeffs(same, cross, i, j)
            assert coeffs[0] == 0.0 and coeffs[2] == 0.0
            np.testing.assert_allclose(
                _plackett_asin(t, t * t, coeffs),
                entry_form_asin(same, cross, i, j, t), rtol=0, atol=1e-13)

    def test_general_paths_match_entry_form(self):
        # random splits of the entries between same and cross, so that
        # terms that vanish on both package paths count: k and l each join
        # i or j at random, and kl is either; small correlations keep every
        # matrix on the path positive definite
        rng = np.random.default_rng(9)
        t = np.linspace(0.0, 1.0, 41)
        for _ in range(200):
            r = np.triu(rng.uniform(-0.25, 0.25, (4, 4)), 1)
            i, j = sorted(rng.choice(4, 2, replace=False))
            k, l = (a for a in range(4) if a not in (i, j))
            in_cross = np.zeros((4, 4), dtype=bool)
            in_cross[i, j] = True
            in_cross[k, l] = rng.random() < 0.5
            for m in (k, l):
                # the entry to the other one of i, j is in cross
                other = (i, j)[rng.integers(2)]
                in_cross[min(other, m), max(other, m)] = True
            same = np.eye(4) + np.where(in_cross, 0.0, r)
            cross = np.where(in_cross, r, 0.0)
            same, cross = same + np.triu(same, 1).T, cross + cross.T
            _, *coeffs = _plackett_coeffs(same, cross, i, j)
            np.testing.assert_allclose(
                _plackett_asin(t, t * t, coeffs),
                entry_form_asin(same, cross, i, j, t), rtol=0, atol=1e-13)

    def test_index_arrays_match_single_pairs(self):
        # one vectorised call over all pairs gives each pair's own
        # coefficients
        same, cross, *_ = next(pattern_paths())
        i, j = np.triu_indices(4, 1)
        stacked = _plackett_coeffs(same, cross, i, j)
        for n, pair in enumerate(zip(i, j)):
            single = _plackett_coeffs(same, cross, *pair)
            assert [v[n] for v in stacked] == list(single)

    def test_arcsine_ratio_guards(self):
        # the one ratio body of the Childs legs and the Plackett route
        zeros = np.zeros(3)

        def ratio(num, den2):
            return _asin_ratio(num + zeros, den2 + zeros)

        assert ratio(0.0, 0.0).tolist() == [0.0] * 3
        with pytest.raises(DomainError):
            ratio(0.5, 0.0)
        assert ratio(1 + CLAMP_EPS / 2, 1.0).tolist() == [math.pi / 2] * 3
        with pytest.raises(DomainError):
            ratio(1 + 2 * CLAMP_EPS, 1.0)
