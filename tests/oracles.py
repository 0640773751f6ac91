"""Independent references: the rank statistics as O(n^2) comparisons of
the raw values, with no sort and no rank code from the package, and the
`estimate` CSV reader as a plain csv.reader row loop."""

import csv
from fractions import Fraction

import numpy as np

from rankmoments.cli import _IoFailure
from rankmoments.correlation import PairedSample
from rankmoments.errors import DomainError


def s_statistic(x, y):
    """(r_S, T) of a tie-free sample, from the S statistic.

    S = sum_i #{j: x_j < x_i} * #{k: y_k < y_i} is the triple-indicator
    sum over (i, j, k) of H(x_i - x_j) H(y_i - y_k), and r_S is the exact
    rational 12 (S - n(n-1)^2/4) / (n(n^2-1)).
    T = sum_{i != j} sign(x_i - x_j) sign(y_i - y_j) is n(n-1) r_K.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    below_x = (x[None, :] < x[:, None]).sum(axis=1)
    below_y = (y[None, :] < y[:, None]).sum(axis=1)
    s = sum(int(a) * int(b) for a, b in zip(below_x, below_y))
    r_s = 12 * (Fraction(s) - Fraction(n * (n - 1) ** 2, 4)) \
        / (n * (n * n - 1))
    signs = (np.sign(x[:, None] - x[None, :])
             * np.sign(y[:, None] - y[None, :]))
    return r_s, int(signs.sum())


def read_pairs_oracle(path):
    """The `estimate` reader as a csv.reader row loop, the one np.loadtxt
    replaced. It differs from the package's reader on purpose in four
    ways: a first row with one number in its first two cells is a header
    here, a bad row is named by its count among the non-blank rows, not
    by its physical line, and undecodable bytes and an over-long cell
    raise UnicodeDecodeError and csv.Error.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row and any(c.strip() for c in row)]
    except OSError as exc:
        raise _IoFailure(str(exc))
    if not rows:
        raise _IoFailure(f"{path}: empty file")
    start = 0
    try:
        float(rows[0][0]), float(rows[0][1])
    except (ValueError, IndexError):
        start = 1  # header line
    xs, ys = [], []
    for idx, row in enumerate(rows[start:], start=start + 1):
        if len(row) < 2:
            raise _IoFailure(f"{path}: line {idx}: need two columns")
        try:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
        except ValueError as exc:
            raise _IoFailure(f"{path}: line {idx}: {exc}")
    if len(xs) < 4:
        raise DomainError(f"{path}: need at least 4 rows, got {len(xs)}")
    return PairedSample(x=np.asarray(xs), y=np.asarray(ys))
