"""Dense reference for the G-test kernel.

`dense_g_test_stats` is the array stage `independence.g_test_stats` was
before it read sorted nonzero cells: it took an integer stack of shape
(K, S, nx, ny), K tests of S strata each, and summed over every cell of it.
It is kept verbatim, with its `_run_sums`, but for its `strata` parameter, which named the
zero-padded strata of each test; here every stratum of the stack is real,
and an all-zero one counts as a stratum with a single observed category.
`stack_cells` turns such a stack into the cell kernel's input, so tests
can compare the two kernels, and hand the cell kernel any dense stack.
"""

from __future__ import annotations

import numpy as np
from scipy.special import chdtrc

from csi_graphlab.independence import IndependenceError, _check_min_expected


def stack_cells(stack) -> tuple[np.ndarray, np.ndarray]:
    """The `(cells, tests)` of a dense (K, S, nx, ny) stack: its nonzero
    cells as rows (k * S + s, x, y, count) in code order, in the stack's
    dtype, and the test of each of its K * S strata."""
    stack = np.asarray(stack)
    k, s, nx, ny = stack.shape
    at = np.nonzero(stack)
    cells = np.empty((len(at[0]), 4), dtype=stack.dtype)
    cells[:, 0], cells[:, 1], cells[:, 2], cells[:, 3] = at[0] * s + at[1], at[2], at[3], stack[at]
    return cells, np.repeat(np.arange(k), s)


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of `values`, as `np.sum` gives it on the run alone."""
    sums = np.empty(len(lengths))
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths):
        which = np.flatnonzero(lengths == n)
        sums[which] = values[starts[which, None] + np.arange(n)].sum(axis=1)
    return sums


def dense_g_test_stats(
    tables: np.ndarray, min_expected: float = 5.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`(p, g, low, degenerate, tested)` of each test k of an integer stack
    `tables` of shape (K, S, nx, ny), as the dense kernel gave them.  Its
    temporaries are a few arrays of the stack's size."""
    _check_min_expected(min_expected)
    counts = np.asarray(tables)
    if counts.ndim != 4:
        raise IndependenceError("tables must have shape (K, S, nx, ny)")
    if counts.dtype.kind not in "iu":
        raise IndependenceError("tables must hold integer counts, got dtype %s" % counts.dtype)
    counts = counts.astype(np.int64, copy=False)
    if (counts < 0).any():
        raise IndependenceError("tables must hold non-negative counts")
    rows = counts.sum(axis=3)
    cols = counts.sum(axis=2)
    n = rows.sum(axis=2)
    lx = np.count_nonzero(rows, axis=2)
    ly = np.count_nonzero(cols, axis=2)
    degenerate = (lx < 2) | (ly < 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = rows[..., :, None] * cols[..., None, :].astype(np.float64) / n[..., None, None]
    kept = (rows[..., :, None] > 0) & (cols[..., None, :] > 0)
    floor = np.where(kept, expected, np.inf).min(axis=(2, 3), initial=np.inf)
    low = ~degenerate & (floor < min_expected)
    used = ~(degenerate | low)

    cells = used[..., None, None] & (counts > 0)
    obs = counts[cells]
    terms = obs * np.log(obs / expected[cells])
    stat = np.zeros(used.shape)
    stat[used] = 2.0 * _run_sums(terms, np.count_nonzero(cells, axis=(2, 3))[used])
    g = np.add.accumulate(np.hstack([np.zeros((len(stat), 1)), stat]), axis=1)[:, -1]
    df = ((lx - 1) * (ly - 1) * used).sum(axis=1)
    tested = used.any(axis=1)
    p = np.ones(len(g))
    positive = tested & (g > 0)
    p[positive] = chdtrc(df[positive], g[positive])
    return p, g, low.sum(axis=1), degenerate.sum(axis=1), tested
