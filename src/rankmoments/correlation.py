"""Ranks and the three classical correlation coefficients."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateError, DomainError, SizeError, TieError


@dataclass(frozen=True)
class PairedSample:
    """n paired observations with finite real values, held as read-only
    copies so that the permutation cached on the sample cannot go stale."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.array(self.x, dtype=float)
        y = np.array(self.y, dtype=float)
        x.flags.writeable = y.flags.writeable = False
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

    @cached_property
    def _permutation(self) -> np.ndarray:
        """The (1, n) permutation of the sample, after its tie check (x
        first); spearman and kendall of one sample share it."""
        _check_ties(self.x, "x")
        _check_ties(self.y, "y")
        return _permutation_rows(self.x[None], self.y[None])


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


def _x_order(x: np.ndarray) -> tuple[np.ndarray, str | None]:
    """(at, kind) for a (b, n) array x: at[i] the positions in x.ravel()
    of row i in ascending order, and the sort kind that the y of this x
    take. The sort is numpy's default (unstable, SIMD where the CPU has
    it) unless a row of x holds a tie; then x is sorted again stably, so
    that tied x rank in input order, and every y is sorted stably."""
    b, n = x.shape
    at = np.argsort(x, axis=1)
    offsets = np.arange(0, b * n, n)[:, None]
    at += offsets
    if not _tied(x.ravel()[at]):
        return at, None
    at = np.argsort(x, axis=1, kind="stable")
    at += offsets
    return at, "stable"


def _permutation_rows(x: np.ndarray, y: np.ndarray,
                      x_order: tuple | None = None) -> np.ndarray:
    """For each row of two (b, n) arrays, the permutation pi of 0..n-1
    with pi[k] the x rank of the observation of y rank k (ranks from 0).

    x's argsort (_x_order, which callers with several y of one x make
    once) puts y in x order through one flat gather, and a second
    argsort sorts it. On tie-free rows every sort gives the same pi. A
    tie would make pi depend on the sort, so the sorted neighbours are
    compared. A tie in a row of x sorts x and every y stably (_x_order);
    a tie in y alone sorts the rows of that y again stably, since tie-free
    x have one order. Tied x then rank in input order, tied y in x order.
    """
    b, n = y.shape
    at, kind = _x_order(x) if x_order is None else x_order
    yx = y.ravel()[at]
    pi = np.argsort(yx, axis=1, kind=kind)
    offsets = np.arange(0, b * n, n)[:, None]
    if kind is None and _tied(yx.ravel()[pi + offsets]):
        return np.argsort(yx, axis=1, kind="stable")
    return pi


_FLOOR = 2.0 ** -500  # see _pearson_rows


def _scaled(v: np.ndarray) -> np.ndarray:
    """Each row of v times the power of two that brings its largest
    magnitude into [0.5, 1) (the frexp exponent of 0 is 0)."""
    top = np.maximum(v.max(axis=1), -v.min(axis=1))
    return np.ldexp(v, -np.frexp(top)[1][:, None])


def _centred(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of v less its mean, and the sum of its squares (inf or
    nan where a row overflows: _pearson_rows then sums it again)."""
    with np.errstate(over="ignore", invalid="ignore"):
        vc = v - v.mean(axis=1, keepdims=True)
        return vc, (vc * vc).sum(axis=1)


def _pearson_rows(x: np.ndarray, y: np.ndarray,
                  x_centred: tuple | None = None) -> np.ndarray:
    """Product-moment correlation of each row of two (b, n) arrays, 0 where
    the centred sums of squares multiply to 0, which only a constant row
    does. No BLAS: a row reads the same in any block and on any BLAS
    kernel. x_centred is _centred(x), for callers with several y of one x.

    A power of two scales the centred sums exactly unless one overflows or
    loses terms to underflow. So a row is summed again from _scaled copies
    only where its sums overflowed or a sum of squares is below _FLOOR;
    above it an underflowed term is far below the sum's last bit, and the
    product of the two sums is a normal number. A scaled row that is not
    constant has a centred value of 2**-55 or more, whose square is not 0.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        xc, sxx = _centred(x) if x_centred is None else x_centred
        yc, syy = _centred(y)
        sxy = (xc * yc).sum(axis=1)
        redo = ~((np.minimum(sxx, syy) >= _FLOOR) & (sxx * syy < np.inf))
    if redo.any():
        (xc, sxx_redo), (yc, syy_redo) = (_centred(_scaled(v[redo]))
                                          for v in (x, y))
        sxx = sxx.copy()            # x_centred may serve other y too
        sxy[redo], sxx[redo], syy[redo] = ((xc * yc).sum(axis=1),
                                           sxx_redo, syy_redo)
    denom = np.sqrt(sxx * syy)
    return np.where(denom > 0, sxy / np.maximum(denom, 1e-300), 0.0)


def pearson(sample: PairedSample) -> float:
    """Product-moment correlation of the raw values."""
    x, y = sample.x, sample.y
    # the one zero-variance test: a constant column whose mean rounds (six
    # copies of 0.1) leaves centred values of roundoff size
    if x.max() == x.min() or y.max() == y.min():
        raise DegenerateError("constant coordinate has zero variance")
    return float(_pearson_rows(x[None], y[None])[0])


def _spearman_rows(pi: np.ndarray) -> np.ndarray:
    """Rank correlation of each row of a (b, n) array of permutations.

    The squared rank differences sum to d2 = sum_k (pi[k] - k)^2
    = n(n - 1)(2n - 1)/3 - 2 sum_k k pi[k]. Each value is the
    correctly-rounded double of (m - 6 d2)/m with m = n(n^2 - 1). While
    m < 2**53 (n below about 2.1e5) both integers are exact doubles, and
    sum_k k pi[k], below m, is an int64 dot. Beyond that the sum is taken
    as Python ints, and Python's integer division, correctly rounded at
    any size, takes over.
    """
    n = pi.shape[1]
    m = n * (n * n - 1)
    squares = (n - 1) * n * (2 * n - 1) // 3
    k = np.arange(n)
    if m < 2 ** 53:
        return (m - 6 * (squares - 2 * (pi @ k))) / m
    # a piece of this many products, each below (n - 1)^2, sums in int64
    starts = np.arange(0, n, 2 ** 63 // (n - 1) ** 2)
    dots = (sum(int(s) for s in np.add.reduceat(row * k, starts))
            for row in pi)
    return np.array([(m - 6 * (squares - 2 * d)) / m for d in dots])


def spearman(sample: PairedSample) -> float:
    """Rank correlation from squared rank differences."""
    return float(_spearman_rows(sample._permutation)[0])


def inversions_rows(perms: np.ndarray) -> np.ndarray:
    """Inversion count of each row of a (b, n) array of permutations of
    0..n-1 in O(b n log^2 n) time, all as one chunk of (b, width) scratch:
    coefficients_rows_each hands it one chunk of rows, kendall one row.

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
    width = _chunk_shape(n)[0]
    base = min(width, _RUN)
    a = np.empty((b, width), dtype=np.int64)
    a[:, :n] = perms
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
    inv = run_inv.reshape(b, -1).sum(axis=1, dtype=np.int64)
    if base < width:
        runs.sort(axis=1)
        a <<= 1
    w = base
    while w < width:
        runs = a.reshape(-1, 2, w)
        runs &= ~1
        runs[:, 1] |= 1
        a.reshape(-1, 2 * w).sort(axis=1)
        places = (a.reshape(b, -1, 2 * w) & 1) @ np.arange(2 * w)
        # each merge has w*w (left, right) pairs; the uninverted ones
        # number the right run's places less 0 + 1 + ... + (w - 1)
        inv += (width // (2 * w) * (w * w + w * (w - 1) // 2)
                - places.sum(axis=1))
        w *= 2
    return inv


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
    return float(_kendall_rows(sample._permutation)[0])


def coefficients_rows(x: np.ndarray, y: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (r_P, r_S, r_K) of two (b, n) arrays of tie-free samples,
    bitwise equal to pearson, spearman and kendall of each row: the one-y
    case of coefficients_rows_each."""
    out = coefficients_rows_each(x, (y,))[0]
    return out[0], out[1], out[2]


def coefficients_rows_each(x: np.ndarray, ys) -> np.ndarray:
    """Per-row (r_P, r_S, r_K) of a (b, n) array x of tie-free samples
    against each y of the sequence ys, as a (len(ys), 3, b) array. A y is
    a (b, n) array, or any object whose row slices y[lo:hi] are the
    (hi - lo, n) arrays of those rows, so that a caller may make each
    chunk's y on demand.

    The rows go in chunks, cut here alone (_chunk_shape): that bounds the
    scratch of every step, and each chunk's arrays stay in cache from
    Pearson through both counts.
    A chunk's x is sorted, tie-checked and centred once for every y, and
    one permutation per row of each y (_permutation_rows) gives r_S and
    r_K. No value depends on the chunking: r_S and r_K are exact
    rationals and a row's Pearson sums do not see the other rows.
    """
    b, n = x.shape
    rows = _chunk_shape(n)[1]
    out = np.empty((len(ys), 3, b))
    for lo in range(0, b, rows):
        xs = x[lo:lo + rows]
        x_order, x_centred = _x_order(xs), _centred(xs)
        for y, cell in zip(ys, out[:, :, lo:lo + rows]):
            y = y[lo:lo + rows]
            cell[0] = _pearson_rows(xs, y, x_centred)
            pi = _permutation_rows(xs, y, x_order)
            del y
            cell[1] = _spearman_rows(pi)
            cell[2] = _kendall_rows(pi)
        # each array goes once its last reader is done (y before the
        # counts, a chunk's x side before the next chunk's): scratch that
        # outlives its use lies under the next scratch, and malloc then
        # hands the heap top back and faults it in again every chunk
        del x_order, x_centred
    return out


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
