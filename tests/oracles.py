"""Independent references for the rank statistics: O(n^2) comparisons of
the raw values, with no sort and no rank code from the package."""

from fractions import Fraction

import numpy as np


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
