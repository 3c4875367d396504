"""Conditional independence tests: exact rational oracle and a stratified G-test.

The exact oracle reads its strata from `JointPmf.strata` and decides each
with `exact.first_dependence`.  `_stratum_ids` is the one mixed-radix
encoder of sampled rows; the transfer test uses it too.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.stats import chi2

from .data import DataError, Dataset
from .exact import JointPmf, first_dependence

__all__ = [
    "IndependenceError",
    "CiQuery",
    "CiVerdict",
    "ci_exact",
    "g_test",
    "g_test_from_tables",
    "conditional_mutual_information",
]


class IndependenceError(ValueError):
    """Invalid independence query."""


@dataclass(frozen=True)
class CiQuery:
    """Is x independent of y given z (and, if `regime` is set, given R = regime)?"""

    x: str
    y: str
    z: tuple[str, ...] = ()
    regime: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        if self.x == self.y:
            raise IndependenceError("query endpoints must differ")
        if self.x in self.z or self.y in self.z:
            raise IndependenceError("conditioning set must not contain the endpoints")
        if len(set(self.z)) != len(self.z):
            raise IndependenceError("conditioning set repeats a variable")


@dataclass(frozen=True)
class CiVerdict:
    independent: bool
    p_value: float
    statistic: float
    method: str
    warning: str | None = None


def _query_context(q: CiQuery, context: str | None) -> str | None:
    if q.regime is None:
        return None
    if context is None:
        raise IndependenceError("query fixes a regime but no context variable was given")
    if context in (q.x, q.y):
        raise IndependenceError("context variable cannot be a query endpoint with a regime set")
    if context in q.z:
        raise IndependenceError("context variable cannot appear in z when a regime is set")
    return context


def _exact_strata(
    p: JointPmf, q: CiQuery, context: str | None, cols: tuple[str, ...]
) -> dict[tuple[str, ...], dict[tuple[str, ...], Fraction]]:
    """Masses of `cols` per stratum of z, inside the query's regime if set."""
    ctx = _query_context(q, context)
    if ctx is None:
        return p.strata(q.z, cols)
    strata = {
        key[:-1]: cells
        for key, cells in p.strata((*q.z, ctx), cols).items()
        if key[-1] == q.regime
    }
    if not strata:
        raise IndependenceError("regime value %r has probability zero" % (q.regime,))
    return strata


def ci_exact(p: JointPmf, q: CiQuery, context: str | None = None) -> CiVerdict:
    """Exact verdict: within every positive-probability stratum of z (and the
    regime, if set), the joint over (x, y) must factorize as a product of its
    marginals, with Fraction arithmetic and zero tolerance.

    Strata of probability zero do not exist in the pmf and are vacuous.
    """
    for cells in _exact_strata(p, q, context, (q.x, q.y)).values():
        if first_dependence(cells, 1) is not None:
            return CiVerdict(False, 0.0, 0.0, "ci_exact")
    return CiVerdict(True, 1.0, 0.0, "ci_exact")


def conditional_mutual_information(
    p: JointPmf, q: CiQuery, context: str | None = None
) -> float:
    """Exact conditional mutual information of the query, in nats (as float)."""
    joint = _exact_strata(p, q, context, (q.x, q.y))
    px = _exact_strata(p, q, context, (q.x,))
    py = _exact_strata(p, q, context, (q.y,))
    mass = sum(sum(cells.values()) for cells in joint.values())
    mi = 0.0
    for z, cells in joint.items():
        total = sum(cells.values())
        for (xv, yv), prob in cells.items():
            ratio = (prob * total) / (px[z][(xv,)] * py[z][(yv,)])
            mi += float(prob / mass) * math.log(float(ratio))
    return mi


def _stratum_ids(data: Dataset, cols: tuple[str, ...], mask: np.ndarray) -> np.ndarray:
    """Mixed-radix code of the `cols` values of each masked row (0 if no cols)."""
    ids = np.zeros(int(mask.sum()), dtype=np.int64)
    for c in cols:
        ids = ids * len(data.labels(c)) + data.column(c)[mask]
    return ids


def g_test(
    data: Dataset,
    q: CiQuery,
    alpha: float,
    context: str | None = None,
    min_expected: float = 5.0,
) -> CiVerdict:
    """Stratified G-test of x against y within each stratum of z.

    The statistic is G = 2 * sum O * ln(O / E) accumulated over qualifying
    strata, with degrees of freedom (|x| - 1)(|y| - 1) per stratum counted
    over the categories actually observed there.  Low-count rule: a stratum
    qualifies only if every expected cell count over its observed categories
    is at least `min_expected`; other strata are skipped and reported in the
    warning.  Strata where x or y shows a single category carry no
    information and are likewise skipped.  With no qualifying stratum the
    verdict is independent with p = 1 and a warning.  Independence is
    declared iff the chi-squared tail probability is >= alpha.
    """
    if not (0.0 < alpha < 1.0):
        raise IndependenceError("alpha must be in (0, 1)")
    ctx = _query_context(q, context)
    for col in (q.x, q.y, *q.z):
        if col not in data.columns:
            raise DataError("unknown column %r" % (col,))
    if ctx is not None:
        try:
            rcode = data.code_of(ctx, q.regime)
        except DataError:
            raise IndependenceError(
                "regime value %r is not a category of %r" % (q.regime, ctx)
            ) from None
        mask = data.column(ctx) == rcode
        if not mask.any():
            raise IndependenceError(
                "regime value %r has no rows in the dataset" % (q.regime,)
            )
    else:
        mask = np.ones(data.n_rows, dtype=bool)
    if not mask.any():
        raise IndependenceError("no rows to test")
    x = data.column(q.x)[mask]
    y = data.column(q.y)[mask]
    nx = len(data.labels(q.x))
    ny = len(data.labels(q.y))
    ids = _stratum_ids(data, q.z, mask)
    order = np.argsort(ids, kind="stable")
    ids, x, y = ids[order], x[order], y[order]
    bounds = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1], True])
    tables = [
        np.bincount(x[lo:hi] * ny + y[lo:hi], minlength=nx * ny).reshape(nx, ny)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return g_test_from_tables(tables, alpha, min_expected)


def g_test_from_tables(
    tables: Iterable[np.ndarray], alpha: float, min_expected: float = 5.0
) -> CiVerdict:
    """G-test over pre-tabulated per-stratum contingency tables.

    Applies the same qualification rules as `g_test`; `g_test` itself and
    the bootstrap replicates of the transfer test share this core so both
    decide identically on identical counts.
    """
    if not (0.0 < alpha < 1.0):
        raise IndependenceError("alpha must be in (0, 1)")
    g_stat = 0.0
    df = 0
    skipped_low = 0
    degenerate = 0
    used = 0
    for counts in tables:
        counts = counts[counts.sum(axis=1) > 0][:, counts.sum(axis=0) > 0]
        lx, ly = counts.shape
        if lx < 2 or ly < 2:
            degenerate += 1
            continue
        n_z = counts.sum()
        expected = np.outer(counts.sum(axis=1), counts.sum(axis=0)) / n_z
        if expected.min() < min_expected:
            skipped_low += 1
            continue
        obs = counts[counts > 0]
        exp = expected[counts > 0]
        g_stat += 2.0 * float(np.sum(obs * np.log(obs / exp)))
        df += (lx - 1) * (ly - 1)
        used += 1
    warning = None
    notes = []
    if skipped_low:
        notes.append("%d strata below the expected-count floor" % skipped_low)
    if degenerate:
        notes.append("%d strata with a single observed category" % degenerate)
    if used == 0:
        notes.append("no qualifying strata; defaulting to independence")
        return CiVerdict(True, 1.0, 0.0, "g_test", warning="; ".join(notes))
    if notes:
        warning = "; ".join(notes)
    p_value = float(chi2.sf(g_stat, df))
    return CiVerdict(p_value >= alpha, p_value, g_stat, "g_test", warning=warning)
