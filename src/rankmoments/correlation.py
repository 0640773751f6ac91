"""Ranks and the three classical correlation coefficients, plus an
integer-statistic route to the rank correlation used as an exact
cross-check."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateError, DomainError, SizeError, TieError


@dataclass(frozen=True)
class PairedSample:
    """n paired observations with finite real values."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise SizeError("x and y must be 1-D vectors of equal length")
        if len(x) < 2:
            raise SizeError(f"need n >= 2, got n={len(x)}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DomainError("sample values must be finite")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SStatistic:
    """Integer decomposition of the triple-indicator sum.

    s_value = i_term + j_term, and the pair-sign numerator satisfies
    t_value = 4*i_term - 2*k_term - 2*l_term + n(n-1).
    """

    s_value: int
    t_value: int
    i_term: int
    j_term: int
    k_term: int
    l_term: int


def _check_ties(values: np.ndarray, name: str):
    uniq, counts = np.unique(values, return_counts=True)
    if (counts > 1).any():
        raise TieError(name, tuple(float(v) for v in uniq[counts > 1]))


def _ranks_rows(x: np.ndarray) -> np.ndarray:
    """Ranks 1..n of each row of x, via argsort-of-argsort."""
    order = np.argsort(x, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(x.shape[0])[:, None]
    ranks[rows, order] = np.arange(1, x.shape[1] + 1)
    return ranks


def compute_ranks(sample: PairedSample) -> tuple[np.ndarray, np.ndarray]:
    """Ranks (p, q) of x and y, each a permutation of 1..n."""
    _check_ties(sample.x, "x")
    _check_ties(sample.y, "y")
    p, q = _ranks_rows(np.stack((sample.x, sample.y)))
    return p, q


def _pearson_rows(x: np.ndarray, y: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Product-moment correlation of each row of two (b, n) arrays (0 where
    the centred sums of squares multiply to 0), and that product's root.
    No BLAS: a row reads the same in any block and on any BLAS kernel."""
    xc = x - x.mean(axis=1, keepdims=True)
    yc = y - y.mean(axis=1, keepdims=True)
    denom = np.sqrt((xc * xc).sum(axis=1) * (yc * yc).sum(axis=1))
    r_p = np.where(denom > 0, (xc * yc).sum(axis=1) / np.maximum(denom, 1e-300),
                   0.0)
    return r_p, denom


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation of the raw values."""
    # scaling a column by a power of two is exact and keeps its squares
    # in range at any magnitude (the frexp exponent of 0 is 0)
    x, y = (np.ldexp(v, -np.frexp(np.abs(v).max())[1])
            for v in (sample.x, sample.y))
    r_p, denom = _pearson_rows(x[None], y[None])
    # a constant column whose mean rounds (six copies of 0.1) leaves
    # centred values of roundoff size, so test max == min as well
    if x.max() == x.min() or y.max() == y.min() or denom[0] == 0:
        raise DegenerateError("constant coordinate has zero variance")
    return float(r_p[0])


def _spearman_rows(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Rank correlation of each row of two (b, n) rank arrays.

    Each value is the correctly-rounded double of (m - 6 d2)/m with
    m = n(n^2 - 1) and d2 the sum of squared rank differences. Both
    integers are exact doubles while m < 2**53; beyond that Python's
    integer division, correctly rounded at any size, takes over.
    """
    n = rx.shape[1]
    m = n * (n * n - 1)
    d2 = ((rx - ry) ** 2).sum(axis=1)
    if m < 2 ** 53:
        return (m - 6 * d2) / m
    return np.array([(m - 6 * int(d)) / m for d in d2])


def spearman(sample: PairedSample) -> float:
    """Rank correlation from squared rank differences."""
    p, q = compute_ranks(sample)
    return float(_spearman_rows(p[None], q[None])[0])


# Rows are counted in chunks of about this many elements. It bounds the
# counter's scratch memory (a few int64 arrays of this length, well under
# 1 MB) whatever the block shape, as long as one padded row fits.
_CHUNK_ELEMENTS = 2 ** 13


def inversions_rows(perms: np.ndarray) -> np.ndarray:
    """Inversion count of each row of a (b, n) array of permutations of
    0..n-1, in O(b n log^2 n) time and O(n) memory per chunk.

    Bottom-up merge counting (Knight 1966) vectorised across rows. Each
    row is padded to a power of two with increasing values above n, which
    adds no inversions. At width w every pair of sorted runs is merged by
    one np.sort of the runs of 2w, with the low bit of each value marking
    the right run. A right-run element's place in the merged run is its
    place in the right run plus the left-run elements below it; the rest
    of the left run is inverted with it.
    """
    b, n = perms.shape
    width = 1 << max(n - 1, 0).bit_length()
    rows = max(1, _CHUNK_ELEMENTS // width)
    out = np.empty(b, dtype=np.int64)
    for lo in range(0, b, rows):
        chunk = perms[lo:lo + rows]
        c = len(chunk)
        a = np.empty((c, width), dtype=np.int64)
        a[:, :n] = chunk
        a[:, n:] = np.arange(n, width)
        a <<= 1
        inv = np.zeros(c, dtype=np.int64)
        w = 1
        while w < width:
            runs = a.reshape(-1, 2, w)
            runs &= ~1
            runs[:, 1] |= 1
            a.reshape(-1, 2 * w).sort(axis=1)
            places = (a.reshape(c, -1, 2 * w) & 1) @ np.arange(2 * w)
            # each merge has w*w (left, right) pairs; the uninverted ones
            # number the right run's places less 0 + 1 + ... + (w - 1)
            inv += (width // (2 * w) * (w * w + w * (w - 1) // 2)
                    - places.sum(axis=1))
            w *= 2
        out[lo:lo + c] = inv
    return out


def _discordant_rows(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Discordant pair count of each row of two (b, n) arrays of ranks
    1..n: the inversions of the y ranks placed in x-rank order."""
    q = np.empty_like(ry)
    q[np.arange(rx.shape[0])[:, None], rx - 1] = ry
    q -= 1
    return inversions_rows(q)


def _kendall_rows(rx: np.ndarray, ry: np.ndarray) -> np.ndarray:
    """Pair-sign correlation of each row of two (b, n) rank arrays.

    (P - 2D) and the pair count P are exact doubles, so each value is the
    correctly-rounded double of the rational (P - 2D)/P.
    """
    pairs = rx.shape[1] * (rx.shape[1] - 1) // 2
    return (pairs - 2 * _discordant_rows(rx, ry)) / pairs


def kendall(sample: PairedSample) -> float:
    """Pair-sign correlation, via the discordant count of the ranks."""
    p, q = compute_ranks(sample)
    return float(_kendall_rows(p[None], q[None])[0])


def coefficients_rows(x: np.ndarray, y: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (r_P, r_S, r_K) of two (b, n) arrays of tie-free samples,
    bitwise equal to pearson, spearman and kendall of each row."""
    rx = _ranks_rows(x)
    ry = _ranks_rows(y)
    return _pearson_rows(x, y)[0], _spearman_rows(rx, ry), _kendall_rows(rx, ry)


def spearman_via_s(sample: PairedSample) -> tuple[float, SStatistic]:
    """Rank correlation recovered from the integer triple-indicator sum.

    All counting is done in exact integer arithmetic, so the returned
    value is bit-identical to spearman(sample).
    """
    p, q = compute_ranks(sample)
    n = sample.n
    # sum over j of H(x_i - x_j) is rank minus one
    s = int(((p - 1) * (q - 1)).sum())
    # i_term counts ordered pairs with both differences positive, i.e.
    # concordant unordered pairs
    k_term = n * (n - 1) // 2
    i_term = k_term - int(_discordant_rows(p[None], q[None])[0])
    l_term = k_term
    j_term = s - i_term
    t = 4 * i_term - 2 * k_term - 2 * l_term + n * (n - 1)
    stat = SStatistic(s_value=s, t_value=t, i_term=i_term, j_term=j_term,
                      k_term=k_term, l_term=l_term)
    r = float(Fraction(12, 1) * (Fraction(s) - Fraction(n * (n - 1) ** 2, 4))
              / (n * (n * n - 1)))
    return r, stat


def inequality_check(rs: float, rk: float, n: int) -> tuple[bool, bool]:
    """Evaluate the two classical sample bounds linking the coefficients.

    Returns (within the linear-combination bound, within the quadratic
    upper bound on rs). A tiny roundoff slack keeps exact equality cases
    from flipping.
    """
    if n < 3:
        raise SizeError("bounds require n >= 3")
    slack = 1e-12
    # sharp constant n + 4 verified by enumerating all permutations for
    # n in 3..8; equality holds at perfect agreement and perfect reversal
    combo = (3 * (n + 2) * rk - 2 * (n + 1) * rs) / (n + 4)
    daniel_ok = -1 - slack <= combo <= 1 + slack
    bound = 1 - (1 - rk) * ((n - 1) * (1 - rk) + 4) / (2 * (n + 1))
    durbin_stuart_ok = rs <= bound + slack
    return daniel_ok, durbin_stuart_ok
