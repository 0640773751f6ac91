"""Ranks and the three classical correlation coefficients."""

from __future__ import annotations

from dataclasses import dataclass

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


def _check_ties(values: np.ndarray, name: str):
    uniq, counts = np.unique(values, return_counts=True)
    if (counts > 1).any():
        raise TieError(name, tuple(float(v) for v in uniq[counts > 1]))


# Rows are sorted, tie-checked and counted in chunks of about this many
# padded elements. That bounds the scratch memory (a few 8-byte arrays of
# this length, a few MB) whatever the block shape, as long as one padded
# row fits. The size is set by the GIL: the counter's bitset base case
# makes one numpy call per position per chunk, and a numpy call holds the
# GIL for its Python overhead and releases it only for its loop. At 2**14
# those calls are so small that two threads ran eight n = 20 blocks only
# 1.08x faster than one; at 2**15 they ran 1.84x faster, at 2**16 1.80x.
# 2**16 is not taken because it raised the peak RSS of a 100-trial
# n = 1000 contaminated simulate from 41.7 to 43.4 MB (+3.9%); 2**15
# raised it by 0.4%.
_CHUNK_ELEMENTS = 2 ** 15

# Width of the bitset base case: one uint64 holds a run's seen values.
_RUN = 64


def _chunk_shape(n: int) -> tuple[int, int]:
    """A row of n padded to a power of two, and the rows of one chunk."""
    width = 1 << max(n - 1, 0).bit_length()
    return width, max(1, _CHUNK_ELEMENTS // width)


def _tied(s: np.ndarray) -> bool:
    """Whether any row of sorted values holds two equal neighbours."""
    return bool((s[:, 1:] == s[:, :-1]).any())


def _permutation_rows(x: np.ndarray, y: np.ndarray,
                      kind: str | None = None) -> np.ndarray:
    """For each row of two (b, n) arrays, the permutation pi of 0..n-1
    with pi[k] the x rank of the observation of y rank k (ranks from 0).

    One argsort puts y in x order, through one flat gather, and a second
    sorts it. The argsorts are numpy's default (unstable, SIMD where the
    CPU has it). On tie-free rows every sort gives the same pi. A tie
    would make pi depend on the sort, so the sorted neighbours are
    compared, and if any row holds a tie, every row is sorted again
    stably: tied x then rank in input order, tied y in x order.
    """
    b, n = x.shape
    offsets = np.arange(0, b * n, n)[:, None]
    at = np.argsort(x, axis=1, kind=kind)
    at += offsets
    xs = x.ravel()[at]
    yx = y.ravel()[at]
    pi = np.argsort(yx, axis=1, kind=kind)
    if kind is None and (_tied(xs) or _tied(yx.ravel()[pi + offsets])):
        return _permutation_rows(x, y, "stable")
    return pi


def _sample_permutation(sample: PairedSample) -> np.ndarray:
    """The (1, n) permutation of a sample, after its tie check."""
    _check_ties(sample.x, "x")
    _check_ties(sample.y, "y")
    return _permutation_rows(sample.x[None], sample.y[None])


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


def _rank_dot_rows(pi: np.ndarray):
    """sum_k k * pi[k] of each row of a (b, n) array of permutations,
    exactly: in int64 while its bound sum_k k^2 fits (n below about
    3.03e6), else as Python ints from int64 partial sums."""
    n = pi.shape[1]
    k = np.arange(n)
    if (n - 1) * n * (2 * n - 1) // 6 < 2 ** 63:
        return pi @ k
    # a piece of this many products, each below (n - 1)^2, sums in int64
    starts = np.arange(0, n, 2 ** 63 // (n - 1) ** 2)
    return [sum(int(s) for s in np.add.reduceat(row * k, starts))
            for row in pi]


def _spearman_rows(pi: np.ndarray) -> np.ndarray:
    """Rank correlation of each row of a (b, n) array of permutations.

    The squared rank differences sum to d2 = sum_k (pi[k] - k)^2
    = n(n - 1)(2n - 1)/3 - 2 sum_k k pi[k]. Each value is the
    correctly-rounded double of (m - 6 d2)/m with m = n(n^2 - 1). Both
    integers are exact doubles while m < 2**53; beyond that Python's
    integer division, correctly rounded at any size, takes over.
    """
    n = pi.shape[1]
    m = n * (n * n - 1)
    squares = (n - 1) * n * (2 * n - 1) // 3
    dot = _rank_dot_rows(pi)
    if m < 2 ** 53:
        return (m - 6 * (squares - 2 * dot)) / m
    return np.array([(m - 6 * (squares - 2 * int(d))) / m for d in dot])


def spearman(sample: PairedSample) -> float:
    """Rank correlation from squared rank differences."""
    return float(_spearman_rows(_sample_permutation(sample))[0])


def inversions_rows(perms: np.ndarray) -> np.ndarray:
    """Inversion count of each row of a (b, n) array of permutations of
    0..n-1, in O(b n log^2 n) time and O(n) memory per chunk;
    coefficients_rows hands it one chunk at a time.

    Each row is padded to a power of two with increasing values above n,
    which adds no inversions, and cut into runs of base = min(width, 64).
    Within a run the count starts from a bitset base case. A run's
    argsort is the inverse of its local ranks 0..base-1 and has the same
    inversions, so one argsort of the runs serves as their local ranks (a
    lone run's values already are). Then one vectorised step per position
    over every run of the chunk adds the popcount of the values seen so
    far above the next one, a uint64 bitset per run.

    Above 64 the runs are sorted and merged bottom-up (Knight 1966),
    vectorised across rows. At width w every pair of sorted runs is
    merged by one np.sort of the runs of 2w, with the low bit of each
    value marking the right run. A right-run element's place in the
    merged run is its place in the right run plus the left-run elements
    below it; the rest of the left run is inverted with it.
    """
    b, n = perms.shape
    width, rows = _chunk_shape(n)
    base = min(width, _RUN)
    out = np.empty(b, dtype=np.int64)
    for lo in range(0, b, rows):
        chunk = perms[lo:lo + rows]
        c = len(chunk)
        a = np.empty((c, width), dtype=np.int64)
        a[:, :n] = chunk
        a[:, n:] = np.arange(n, width)
        runs = a.reshape(-1, base)
        # when one run is the whole row, its values are its local ranks
        local = runs if base == width else runs.argsort(axis=1)
        # one contiguous row of every run's values per position; padding
        # above n in a lone run adds nothing, so stop at n
        values = local.T[:min(base, n)].astype(np.uint64, order="C")
        bits = np.uint64(1) << values
        seen = np.zeros(len(runs), dtype=np.uint64)
        # a run holds up to 64 * 63 / 2 = 2016 inversions
        run_inv = np.zeros(len(runs), dtype=np.uint16)
        for v, bit in zip(values, bits):
            run_inv += np.bitwise_count(seen >> v)
            seen |= bit
        inv = run_inv.reshape(c, -1).sum(axis=1, dtype=np.int64)
        if base < width:
            runs.sort(axis=1)
            a <<= 1
        w = base
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


def _kendall_rows(pi: np.ndarray) -> np.ndarray:
    """Pair-sign correlation of each row of a (b, n) array of permutations.

    A pair is discordant when its x and y ranks disagree, an inversion of
    pi. (P - 2D) and the pair count P are exact doubles, so each value is
    the correctly-rounded double of the rational (P - 2D)/P.
    """
    pairs = pi.shape[1] * (pi.shape[1] - 1) // 2
    return (pairs - 2 * inversions_rows(pi)) / pairs


def kendall(sample: PairedSample) -> float:
    """Pair-sign correlation, via the discordant count of the ranks."""
    return float(_kendall_rows(_sample_permutation(sample))[0])


def coefficients_rows(x: np.ndarray, y: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (r_P, r_S, r_K) of two (b, n) arrays of tie-free samples,
    bitwise equal to pearson, spearman and kendall of each row.

    The rows go in chunks of the inversion counter's size, so each
    chunk's arrays are still in cache from Pearson through both counts,
    and one permutation per row (_permutation_rows) gives r_S and r_K.
    No value depends on the chunking: r_S and r_K are exact rationals
    and a row's Pearson sums do not see the other rows.
    """
    b, n = x.shape
    rows = _chunk_shape(n)[1]
    out = np.empty((3, b))
    for lo in range(0, b, rows):
        xs, ys = x[lo:lo + rows], y[lo:lo + rows]
        pi = _permutation_rows(xs, ys)
        out[:, lo:lo + rows] = (_pearson_rows(xs, ys)[0], _spearman_rows(pi),
                                _kendall_rows(pi))
    return out[0], out[1], out[2]


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
