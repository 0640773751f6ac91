import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankmoments import correlation
from rankmoments.correlation import (_CHUNK_ELEMENTS, PairedSample,
                                     _chunk_shape, _kendall_rows,
                                     _permutation_rows,
                                     _spearman_rows, coefficients_rows,
                                     coefficients_rows_each,
                                     inequality_check, inversions_rows,
                                     kendall, pearson, spearman)
from rankmoments.errors import DegenerateError, SizeError, TieError

from oracles import s_statistic


def sample(x, y):
    return PairedSample(x=np.asarray(x, dtype=float),
                        y=np.asarray(y, dtype=float))


def random_sample(rng, n):
    return sample(rng.permutation(n) + 1.0, rng.permutation(n) + 1.0)


def ranks(s):
    """Ranks (p, q) of x and y, each a permutation of 1..n: the double
    argsort, as a reference for the one-permutation kernel."""
    p, q = np.argsort(np.stack((s.x, s.y)), axis=1).argsort(axis=1) + 1
    return p, q


def kendall_oracle(s):
    """Pair-sign correlation, O(n^2) reference implementation."""
    return float(Fraction(s_statistic(s.x, s.y)[1], s.n * (s.n - 1)))


def pair_scores(x, y):
    """Antisymmetric pairwise score matrices a_ij = x_j - x_i, b_ij = y_j - y_i."""
    return x[None, :] - x[:, None], y[None, :] - y[:, None]


def daniels_gamma(a, b):
    """Generalized score-product coefficient sum(ab)/sqrt(sum(a^2)sum(b^2)),
    O(n^2) reference for the three coefficients."""
    return float((a * b).sum()) / np.sqrt(float((a * a).sum())
                                          * float((b * b).sum()))


def inversions_oracle(a):
    """Pairs i < j with a[i] > a[j], by comparing all pairs."""
    return int(np.triu(a[:, None] > a[None, :], 1).sum())


perm_strategy = st.integers(0, 2 ** 32 - 1)


class TestFixtures:
    def test_four_point_fixture(self):
        s = sample([1, 2, 3, 4], [1, 3, 2, 4])
        assert kendall(s) == pytest.approx(2 / 3, abs=0)
        assert spearman(s) == pytest.approx(0.8, abs=0)
        assert pearson(s) == pytest.approx(0.8, abs=1e-15)

    def test_identity(self):
        s = sample([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        assert pearson(s) == pytest.approx(1.0, abs=1e-15)
        assert spearman(s) == 1.0
        assert kendall(s) == 1.0

    def test_reversal(self):
        s = sample([1, 2, 3, 4, 5], [5, 4, 3, 2, 1])
        assert spearman(s) == -1.0
        assert kendall(s) == -1.0

    def test_three_point_s_statistic(self):
        s = sample([1, 2, 3], [2, 1, 3])
        r_s, t = s_statistic(s.x, s.y)
        assert float(r_s) == pytest.approx(0.5, abs=0)
        assert spearman(s) == float(r_s)
        t_norm = t / (3 * 2)
        assert t_norm == pytest.approx(kendall(s), abs=0)

    def test_ranks(self):
        s = sample([10, 30, 20], [1, 2, 3])
        p, q = ranks(s)
        assert p.tolist() == [1, 3, 2]
        assert q.tolist() == [1, 2, 3]

    def test_ties_rejected(self):
        with pytest.raises(TieError) as exc:
            spearman(sample([1, 2, 2, 4], [1, 2, 3, 4]))
        assert exc.value.coordinate == "x"
        assert 2.0 in exc.value.values

    def test_too_small(self):
        with pytest.raises(SizeError):
            kendall(sample([1], [1]))

    @pytest.mark.parametrize("values", [[1.0] * 4, [0.1] * 6, [0.7] * 6,
                                        [0.7] * 7, [0.7] * 11, [1 / 3] * 10])
    def test_constant_column_degenerate(self, values):
        # a mean that rounds leaves centred values of roundoff size, which
        # must still read as zero variance
        ramp = list(range(len(values)))
        with pytest.raises(DegenerateError):
            pearson(sample(values, ramp))
        with pytest.raises(DegenerateError):
            pearson(sample(ramp, values))

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_extreme_scale_column(self, scale):
        # unscaled, the squares of this column underflow to 0 (read as
        # zero variance) or overflow to inf (r = 0)
        values = [scale, 2 * scale, 3 * scale, 4 * scale]
        for x, y in ((values, [1, 3, 2, 4]), ([1, 3, 2, 4], values)):
            assert pearson(sample(x, y)) == pytest.approx(0.8, abs=1e-15)

    # a row at each scale, spread over a few times the scale or over 1-3
    # ulps: 2**-1074 (subnormal), 1e-300, 1, 1e300 and near 1.7e308
    SPREAD_ROWS = [scale * np.array([1.0, 2, 4, 7, 11]) for scale in
                   (2.0 ** -1074, 1e-300, 1.0, 1e300, 1.7e308 / 11)] + [
        v + np.spacing(v) * np.array([0.0, 1, 3, 6, 7]) for v in
        (2.0 ** -1074, 2.0 ** -1022, 1e-300, 0.1, -1.0, 1e300, 1.7e308)]

    def test_nonconstant_rows_have_variance(self):
        # max == min is the one zero-variance test, which relies on every
        # other row having a nonzero denominator: a zero one would read 0
        x = np.array(self.SPREAD_ROWS)
        assert (x.max(axis=1) > x.min(axis=1)).all()
        for sign in (1.0, -1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                block = coefficients_rows(x, sign * x)[0]
                single = [pearson(sample(row, sign * row)) for row in x]
            assert block.tolist() == single
            assert np.abs(block - sign).max() <= 1e-12


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(perm_strategy, st.integers(3, 50))
    def test_s_statistic_identity_exact(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        assert float(s_statistic(s.x, s.y)[0]) == spearman(s)

    @settings(max_examples=200, deadline=None)
    @given(perm_strategy, st.integers(3, 50))
    def test_fast_kendall_matches_reference(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        assert kendall(s) == kendall_oracle(s)

    @settings(max_examples=200, deadline=None)
    @given(perm_strategy, st.integers(3, 50))
    def test_inequalities_hold(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        daniel_ok, ds_ok = inequality_check(spearman(s), kendall(s), n)
        assert daniel_ok and ds_ok

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy, st.integers(3, 30))
    def test_symmetry_and_sign_flip(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        swapped = sample(s.y, s.x)
        negated = sample(-s.x, s.y)
        for coef in (pearson, spearman, kendall):
            assert coef(swapped) == pytest.approx(coef(s), abs=1e-12)
            assert coef(negated) == pytest.approx(-coef(s), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy, st.integers(3, 30))
    def test_monotone_invariance(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        warped = sample(np.exp(s.x / 10), s.y ** 3)
        assert spearman(warped) == spearman(s)
        assert kendall(warped) == kendall(s)

    @settings(max_examples=100, deadline=None)
    @given(perm_strategy, st.integers(3, 30))
    def test_score_forms_match_direct(self, seed, n):
        s = random_sample(np.random.default_rng(seed), n)
        p, q = (r.astype(float) for r in ranks(s))
        assert daniels_gamma(*pair_scores(s.x, s.y)) == pytest.approx(
            pearson(s), abs=1e-12)
        assert daniels_gamma(*pair_scores(p, q)) == pytest.approx(
            spearman(s), abs=1e-12)
        assert daniels_gamma(*map(np.sign, pair_scores(s.x, s.y))) \
            == pytest.approx(kendall(s), abs=1e-12)


class TestInequalityEdges:
    def test_perfect_agreement(self):
        assert inequality_check(1.0, 1.0, 10) == (True, True)

    def test_perfect_reversal(self):
        assert inequality_check(-1.0, -1.0, 10) == (True, True)

    def test_durbin_stuart_bound_value(self):
        # rk = 0.5, n = 10: bound is 1 - 0.5 * 8.5 / 22
        bound = 1 - 0.5 * (9 * 0.5 + 4) / 22
        assert inequality_check(bound - 1e-9, 0.5, 10)[1]
        assert not inequality_check(bound + 1e-6, 0.5, 10)[1]

    def test_small_n_rejected(self):
        with pytest.raises(SizeError):
            inequality_check(0.0, 0.0, 2)


def permutation_from_ranks(p, q):
    """pi with pi[k] the x rank of the observation of y rank k (from 0),
    from rank arrays (p, q) of x and y (from 1), rows last."""
    pi = np.empty_like(p)
    np.put_along_axis(pi, q - 1, p - 1, axis=-1)
    return pi


def test_kendall_from_ranks_matches():
    rng = np.random.default_rng(5)
    s = random_sample(rng, 40)
    p, q = ranks(s)
    pi = permutation_from_ranks(p, q)
    assert (pi == _permutation_rows(s.x[None], s.y[None])[0]).all()
    assert _kendall_rows(pi[None])[0] == kendall_oracle(s)


@pytest.mark.parametrize("n", [4, 65, 1000, 208_063, 208_064, 300_002])
def test_spearman_rows_correctly_rounded(n):
    # n = 208 063 and 208 064 straddle the one switch, where n(n^2 - 1)
    # passes 2**53; at n = 300 002 it is not an exact double, and dividing
    # in float64 there would misround about half of the rows
    rng = np.random.default_rng(n)
    p = np.array([rng.permutation(n) + 1 for _ in range(6)])
    q = np.array([rng.permutation(n) + 1 for _ in range(6)])
    m = n * (n * n - 1)
    want = [float(1 - Fraction(6 * int(((a - b) ** 2).sum()), m))
            for a, b in zip(p, q)]
    assert _spearman_rows(permutation_from_ranks(p, q)).tolist() == want


def test_spearman_beyond_int64():
    # from n of about 3.03e6 the sums of squared rank differences, and
    # of rank products, pass 2**63
    n = 3_100_000
    rows = np.stack([np.arange(n), np.arange(n)[::-1]])
    assert _spearman_rows(rows).tolist() == [1.0, -1.0]
    x = np.arange(float(n))
    assert spearman(sample(x, -x)) == -1.0


def test_large_n_fast_path():
    rng = np.random.default_rng(11)
    s = random_sample(rng, 2000)
    assert kendall(s) == kendall_oracle(s)


class TestInversionCounter:
    # 63..65 straddle the 64-bit base case, 127..129 hold several runs,
    # and 4097 pads to a row of 128 runs
    NS = (2, 3, 4, 5, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4097)

    @pytest.mark.parametrize("n", NS)
    def test_matches_oracle(self, n):
        rng = np.random.default_rng(n)
        perms = np.array([rng.permutation(n) for _ in range(6)])
        assert inversions_rows(perms).tolist() == [
            inversions_oracle(p) for p in perms]

    @pytest.mark.parametrize("n", NS)
    def test_identity_and_reversal(self, n):
        rows = np.array([np.arange(n), np.arange(n)[::-1]])
        assert inversions_rows(rows).tolist() == [0, n * (n - 1) // 2]

    def test_partial_last_chunk(self):
        # one call on more rows than a chunk (n = 20 pads to 32, so a chunk
        # holds _CHUNK_ELEMENTS // 32 rows), counted as one chunk
        rows_per_chunk = _CHUNK_ELEMENTS // 32
        rng = np.random.default_rng(3)
        perms = np.array([rng.permutation(20)
                          for _ in range(2 * rows_per_chunk + 3)])
        assert inversions_rows(perms).tolist() == [
            inversions_oracle(p) for p in perms]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 300), perm_strategy, st.data())
    def test_reversed_segment_matches_oracle(self, n, seed, data):
        # a segment reversed into descending order fully inverts the
        # 64-runs it covers
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        rng = np.random.default_rng(seed)
        perms = np.array([rng.permutation(n) for _ in range(3)])
        perms[:, lo:hi] = np.sort(perms[:, lo:hi], axis=1)[:, ::-1]
        assert inversions_rows(perms).tolist() == [
            inversions_oracle(p) for p in perms]

    def test_row_wider_than_a_chunk(self):
        # one call on rows of more than _CHUNK_ELEMENTS, where a chunk is a
        # single row. Row i*k + j holds p[i]*k + q[j]: every pair of
        # blocks i, i' is inverted k*k times if p is, and each block holds
        # q's inversions
        k = math.isqrt(_CHUNK_ELEMENTS) + 2
        rng = np.random.default_rng(12)
        p, q = rng.permutation(k), rng.permutation(k)
        row = (p[:, None] * k + q[None, :]).ravel()
        assert len(row) > _CHUNK_ELEMENTS
        want = inversions_oracle(p) * k * k + k * inversions_oracle(q)
        assert inversions_rows(np.stack([row, row[::-1]])).tolist() == [
            want, k * k * (k * k - 1) // 2 - want]


def test_kernel_is_the_one_chunker(monkeypatch):
    # coefficients_rows_each cuts a block into chunks and kendall counts
    # one row; the counter itself never gets more than a chunk's rows
    shapes = []

    def recorded(perms, _count=inversions_rows):
        shapes.append(perms.shape)
        return _count(perms)

    monkeypatch.setattr(correlation, "inversions_rows", recorded)
    rng = np.random.default_rng(6)
    for n in (20, 1000):
        x, y = rng.standard_normal((2, 2 * _chunk_shape(n)[1] + 3, n))
        coefficients_rows_each(x, (y,))
    kendall(random_sample(rng, 50))
    assert [n for _, n in shapes] == [20] * 3 + [1000] * 3 + [50]
    assert all(b <= _chunk_shape(n)[1] for b, n in shapes)


def stable_permutation(x, y):
    """The permutation of each row from stable sorts: tied x in input
    order, tied y in x order."""
    yx = np.take_along_axis(y, np.argsort(x, axis=1, kind="stable"), axis=1)
    return np.argsort(yx, axis=1, kind="stable")


class TestRanksTieGuard:
    def test_tie_free_block_matches_stable_ranks(self):
        x, y = np.random.default_rng(8).standard_normal((2, 50, 300))
        assert (_permutation_rows(x, y) == stable_permutation(x, y)).all()

    @pytest.mark.parametrize("b, row", [(5, 2),
                                        (3 * (_CHUNK_ELEMENTS // 40), -1)],
                             ids=["third-row", "last-chunk"])
    def test_tied_row_ranks_in_input_order(self, b, row):
        x, y = np.random.default_rng(9).standard_normal((2, b, 40))
        x[row, [3, 17, 30]] = x[row, 25]
        stable = stable_permutation(x, y)
        pi = _permutation_rows(x, y)
        assert (pi == stable).all()
        # the x ranks of the observations, in input order
        ranks = np.take_along_axis(pi, np.argsort(np.argsort(y, axis=1),
                                                  axis=1), axis=1)
        tied = ranks[row, [3, 17, 25, 30]]
        assert tied.tolist() == list(range(tied[0], tied[0] + 4))


def tied_block(n, b, rng):
    """b rows of n with tied x in row 1, tied y in row b // 2 and both
    in the last row."""
    x, y = rng.standard_normal((2, b, n))
    x[1, [0, n // 2, n - 1]] = x[1, 1]
    y[b // 2, [2, n - 2]] = y[b // 2, n // 3]
    x[-1, [1, n - 3]] = x[-1, n // 2]
    y[-1, [0, n - 1]] = y[-1, 3]
    return x, y


class TestBlockKernel:
    @pytest.mark.parametrize("n", [4, 20, 64, 65, 1000])
    def test_chunk_boundaries(self, n):
        rows = _chunk_shape(n)[1]
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2 * rows + 3, n))
        y = 0.6 * x + 0.8 * rng.standard_normal(x.shape)
        block = [v.tolist() for v in coefficients_rows(x, y)]
        single = [[f(sample(a, b)) for a, b in zip(x, y)]
                  for f in (pearson, spearman, kendall)]
        assert block == single
        cut = int(rng.integers(1, 2 * rows + 3))
        head, tail = (coefficients_rows(x[sl], y[sl])
                      for sl in (slice(None, cut), slice(cut, None)))
        assert [h.tolist() + t.tolist()
                for h, t in zip(head, tail)] == block

    @pytest.mark.parametrize("scale", [1e80, 1e-160])
    def test_extreme_scale_block(self, scale):
        # unscaled, the centred squares overflow (r_P read 0) or underflow;
        # one row at unit scale shares the chunk with the scaled ones
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 20))
        y = 0.6 * x + 0.8 * rng.standard_normal(x.shape)
        x[1:], y[1:] = x[1:] * scale, y[1:] * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_p = coefficients_rows(x, y)[0]
            assert r_p.tolist() == [pearson(sample(a, b))
                                    for a, b in zip(x, y)]
        assert np.abs(r_p).min() > 0.1

    @pytest.mark.parametrize("n", [20, 1000])
    def test_ties_match_stable_sorts(self, n, monkeypatch):
        x, y = tied_block(n, 2 * _chunk_shape(n)[1] + 3,
                          np.random.default_rng(n))
        assert (_permutation_rows(x, y) == stable_permutation(x, y)).all()
        # x is sorted once per chunk, also in the middle chunk, whose one
        # tie is in y
        x_order, calls = correlation._x_order, []

        def counted(xs):
            calls.append(1)
            return x_order(xs)

        monkeypatch.setattr(correlation, "_x_order", counted)
        got = [v.tolist() for v in coefficients_rows(x, y)]
        assert len(calls) == 3
        argsort = np.argsort
        monkeypatch.setattr(
            np, "argsort",
            lambda a, axis=-1, kind=None: argsort(a, axis, kind="stable"))
        assert [v.tolist() for v in coefficients_rows(x, y)] == got


class TestSeveralY:
    """coefficients_rows_each(x, ys) sorts, tie-checks and centres each
    chunk of x once for all the ys; each y must read as it does alone."""

    @staticmethod
    def assert_each_alone(x, ys):
        got = coefficients_rows_each(x, ys)
        assert got.shape == (len(ys), 3, len(x))
        for y, cell in zip(ys, got):
            want = np.array(coefficients_rows(x, y))
            assert cell.tobytes() == want.tobytes()

    @staticmethod
    def several_y(x, rng):
        return [rho * x + math.sqrt(1 - rho * rho) * rng.standard_normal(
            x.shape) for rho in (-0.7, 0.2, 0.9)]

    @pytest.mark.parametrize("n", [20, 1000])
    def test_tie_in_x(self, n):
        # a tie in row 1 of x sends every y of the first chunk to the
        # stable sorts
        rng = np.random.default_rng(n)
        x = rng.standard_normal((2 * _chunk_shape(n)[1] + 3, n))
        x[1, [0, n // 2, n - 1]] = x[1, 1]
        ys = self.several_y(x, rng)
        self.assert_each_alone(x, ys)
        for y, cell in zip(ys, coefficients_rows_each(x, ys)):
            pi = stable_permutation(x, y)
            assert cell[1].tolist() == _spearman_rows(pi).tolist()
            assert cell[2].tolist() == _kendall_rows(pi).tolist()

    @pytest.mark.parametrize("n", [20, 1000])
    def test_tie_in_one_y(self, n):
        rng = np.random.default_rng(n + 1)
        x = rng.standard_normal((2 * _chunk_shape(n)[1] + 3, n))
        ys = self.several_y(x, rng)
        ys[1][-2, [2, n - 2]] = ys[1][-2, n // 3]
        self.assert_each_alone(x, ys)

    @pytest.mark.parametrize("scale", [1e80, 1e-160])
    def test_scaled_pearson_rows(self, scale):
        # rows 1-6 of x are scaled, rows 1-3 of every y and rows 4-6 of
        # one y: rows take the _scaled path for some ys and not others
        # (at 1e80), or for each y in turn (at 1e-160), and no y may see
        # the sums another y's rescaling made
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 20))
        ys = self.several_y(x, rng)
        x[1:7] *= scale
        for y in ys:
            y[1:4] *= scale
        ys[1][4:7] *= scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_each_alone(x, ys)
            got = coefficients_rows_each(x, ys)
        for y, cell in zip(ys, got):
            assert cell[0].tolist() == [pearson(sample(a, b))
                                        for a, b in zip(x, y)]


class TestSharedPermutation:
    """spearman and kendall of one sample share one tie check and one
    permutation, cached on the sample."""

    def test_one_check_and_one_permutation(self, monkeypatch):
        calls = {"_check_ties": 0, "_permutation_rows": 0}
        for name in calls:
            def counted(*args, _f=getattr(correlation, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(correlation, name, counted)
        s = random_sample(np.random.default_rng(5), 50)
        kendall(s), spearman(s), kendall(s)
        assert calls == {"_check_ties": 2, "_permutation_rows": 1}

    @pytest.mark.parametrize("n", [4, 20, 65, 1000, 5000])
    def test_bitwise_equal_to_block_kernel(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        y = 0.6 * x + 0.8 * rng.standard_normal(n)
        want = [v[0] for v in coefficients_rows(x[None], y[None])]
        # a strided input, and kendall asked before spearman
        s = PairedSample(x=np.stack((x, y), axis=1)[:, 0], y=y)
        assert [pearson(s), kendall(s), spearman(s)] == \
            [want[0], want[2], want[1]]

    def test_arrays_are_read_only_copies(self):
        x, y = np.array([3.0, 1.0, 2.0, 4.0]), np.array([1.0, 2.0, 4.0, 3.0])
        s = PairedSample(x=x, y=y)
        r_s = spearman(s)
        x[:] = x[::-1]
        assert x.flags.writeable and not s.x.flags.writeable
        with pytest.raises(ValueError):
            s.x[0] = 0.0
        assert spearman(s) == r_s == spearman(sample([3, 1, 2, 4],
                                                     [1, 2, 4, 3]))

    @pytest.mark.parametrize("x, y, coordinate, message", [
        ([1, 2, 2, 4, 4], [5, 1, 1, 3, 2], "x",
         "tied values in x: (2.0, 4.0)"),
        ([1, 2, 3, 4, 5], [0.5, 1, 0.5, 1, 3], "y",
         "tied values in y: (0.5, 1.0)"),
        ([7, 7, 7, 7], [1, 2, 3, 4], "x", "tied values in x: (7.0,)"),
        ([1, 2, 3, 4], [-0.0, 0.0, 1, 2], "y", "tied values in y: (-0.0,)"),
    ])
    def test_tie_errors_unchanged(self, x, y, coordinate, message):
        s = sample(x, y)
        for f in (spearman, kendall, spearman):
            with pytest.raises(TieError) as exc:
                f(s)
            assert (exc.value.coordinate, str(exc.value)) == \
                (coordinate, message)

    def test_constant_column_before_ties(self):
        # estimate asks pearson first, so a constant column is reported as
        # degenerate, not as tied (test_cli's test_constant_column_exit_3)
        s = sample([7, 7, 7, 7], [1, 1, 3, 4])
        with pytest.raises(DegenerateError):
            pearson(s)
        with pytest.raises(TieError, match="in x"):
            kendall(s)
