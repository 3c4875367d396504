"""Conditional independence tests: exact oracle and a stratified G-test.

The exact oracle reads its strata from `JointPmf.strata` and decides each
with `exact.first_dependence`, on the joint's integer weights: the verdict
of the rational masses, with no `Fraction` arithmetic.  `ExactTester` is
the one path that asks it: its memo on the exact query is kept by the
`SolvedModel`, so exact discovery, the Markov check and the R-faithfulness
search of one solve decide each query once.

Sampled data is decided by one G-test kernel on the tables of K tests as
sorted nonzero cells, (stratum, x, y, count) rows in code order, and the
test of each stratum.  `g_test_stats`, the array stage, gives each test's
p-value, statistic and counts of skipped strata, and `g_test_from_tables`
wraps them in verdicts.  One builder, `g_test_tables`, counts the cells of
many queries in one pass per block of bounded (query, row) pairs, weighting
rows by `counts`, so the count table (`Dataset.tabulate`) gives the tables
of the rows it compresses; memory grows with rows, not with labels.

A separator search `(x, y, sets, regimes)` tries its sets in order and for
each set its regimes in order (None means pooled); its hit is the first
independent (z, regime, verdict), or None.  One cutter, `separator_steps`,
advances searches together one set size at a time; one driver, `lockstep`,
advances such generators together and hands each step's runs to the
tester's `step_hits` in one call, which reads each run through `test` up to
its first independent query.  Testers differ only in how they decide a
query: `ExactTester` when `test` first reads it, and the sample tester
(`discovery.SampleTester`) every unmemoized query of a step at once, in one
`g_test_tables` call and one stacked kernel call per block.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _ranks, _tally
from .exact import JointPmf, SolvedModel, first_dependence

__all__ = [
    "IndependenceError",
    "CiQuery",
    "CiVerdict",
    "ci_exact",
    "ExactTester",
    "g_test",
    "g_test_tables",
    "g_test_from_tables",
    "g_test_stats",
    "conditional_mutual_information",
]


# (query, row) pairs one block of `g_test_tables` counts together
_PAIR_BUDGET = 1 << 18


class IndependenceError(ValueError):
    """Invalid independence query."""


class CiQuery(namedtuple("CiQuery", "x y z regime")):
    """Is x independent of y given z (and, if `regime` is set, given R = regime)?
    A validated tuple: a memo keyed on queries is read with plain tuples."""

    __slots__ = ()

    def __new__(cls, x: str, y: str, z: Sequence[str] = (), regime: str | None = None):
        z = tuple(z)
        if x == y:
            raise IndependenceError("query endpoints must differ")
        if x in z or y in z:
            raise IndependenceError("conditioning set must not contain the endpoints")
        if len(set(z)) != len(z):
            raise IndependenceError("conditioning set repeats a variable")
        return super().__new__(cls, x, y, z, regime)


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
) -> dict[tuple[str, ...], dict[tuple[str, ...], int]]:
    """Weights of `cols` per stratum of z, inside the query's regime if set."""
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
    marginals, tested exactly on the joint's integer weights.

    Strata of probability zero do not exist in the pmf and are vacuous.
    """
    for cells in _exact_strata(p, q, context, (q.x, q.y)).values():
        if first_dependence(cells, 1) is not None:
            return CiVerdict(False, 0.0, 0.0, "ci_exact")
    return CiVerdict(True, 1.0, 0.0, "ci_exact")


def separator_steps(searches):
    """Generator returning each search's hit: its sets are cut lazily into runs
    of one size, and step s yields run s of every unresolved search, as
    (x, y, z, regime) queries, and is sent their hits."""
    runs = [itertools.groupby(sets, key=len) for _, _, sets, _ in searches]
    hits = dict.fromkeys(range(len(searches)))
    live = list(hits)
    while True:
        step = {}
        for i in live:
            x, y, _, regimes = searches[i]
            for _, run in itertools.islice(runs[i], 1):
                step[i] = [(x, y, z, r) for z in run for r in regimes]
        if not step:
            return list(hits.values())
        hits.update(zip(step, (yield list(step.values()))))
        live = [i for i in step if hits[i] is None]


def lockstep(tester, phases) -> list:
    """The values of generators like `separator_steps`, run together: all reach
    their first step before the first call, and each step is one `step_hits` call."""
    results: list = [None] * len(phases)
    sent = dict.fromkeys(range(len(phases)))
    while True:
        runs = {}
        for i, hits in sent.items():
            try:
                runs[i] = phases[i].send(hits)
            except StopIteration as stop:
                results[i] = stop.value
        if not runs:
            return results
        hits = iter(tester.step_hits([run for step in runs.values() for run in step]))
        sent = {i: list(itertools.islice(hits, len(step))) for i, step in runs.items()}


class CiTester:
    """Finds a step's hits through `test`, the memoized verdict of the exact
    query: testers differ only in how they decide a query."""

    def first_separators(self, searches) -> list:
        """The hit of each search."""
        return lockstep(self, [separator_steps(searches)])[0]

    def step_hits(self, runs) -> list:
        """Each run read in order through `test`, up to its first independent query."""
        return [next(((z, r, v) for x, y, z, r in run if (v := self.test(x, y, z, r)).independent),
                     None) for run in runs]


class ExactTester(CiTester):
    """Answers independence queries from the exact joint of a solved model.

    Verdicts are memoized on the exact query in a memo the solve owns
    (`SolvedModel.derive`), so every tester of one solve shares it: exact
    discovery, each Markov check and the R-faithfulness search decide each
    query once.
    """

    def __init__(self, solved: SolvedModel):
        self._joint = solved.joint
        self._memo: dict[CiQuery, CiVerdict] = solved.derive("ci_memo", dict)
        self.variables = solved.scm.variable_names
        self.context = solved.scm.context_variable
        self.regimes = solved.regimes

    def test(self, x: str, y: str, z: Sequence[str] = (), regime: str | None = None) -> CiVerdict:
        key = (x, y, tuple(z), regime)
        if (verdict := self._memo.get(key)) is None:
            q = CiQuery(*key)
            verdict = self._memo[q] = ci_exact(self._joint, q, context=self.context)
        return verdict


def conditional_mutual_information(
    p: JointPmf, q: CiQuery, context: str | None = None
) -> float:
    """Exact conditional mutual information of the query, in nats (as float).

    Each ratio of weights is one correctly rounded int / int division, so the
    floats are those of the same ratios of rational masses.  No pipeline reads
    it; it stays a package export because the acceptance suite's G-test
    calibration picks its clearly dependent queries with it.
    """
    joint = _exact_strata(p, q, context, (q.x, q.y))
    px = _exact_strata(p, q, context, (q.x,))
    py = _exact_strata(p, q, context, (q.y,))
    mass = sum(sum(cells.values()) for cells in joint.values())
    mi = 0.0
    for z, cells in joint.items():
        total = sum(cells.values())
        for (xv, yv), prob in cells.items():
            ratio = (prob * total) / (px[z][(xv,)] * py[z][(yv,)])
            mi += prob / mass * math.log(ratio)
    return mi


def subsets(pool: Sequence[str]) -> Iterable[tuple[str, ...]]:
    """Every subset of `pool`, by size, each size in `itertools.combinations` order."""
    for k in range(len(pool) + 1):
        yield from itertools.combinations(pool, k)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha < 1.0):
        raise IndependenceError("alpha must be in (0, 1)")


def _check_min_expected(min_expected: float) -> None:
    # written so that NaN fails too: it would turn the low-count rule off
    if not min_expected >= 0.0:
        raise IndependenceError(
            "min_expected must be a non-negative number, got %r" % (min_expected,))


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

    Each row counts `counts` times, so a count table gives the verdict of its rows.
    """
    _check_alpha(alpha)
    _check_min_expected(min_expected)
    [tables] = g_test_tables(data, [q], context)
    return g_test_from_tables(*tables, alpha, min_expected)[0]


def _regime_rows(data: Dataset, ctx: str | None, regime: str | None) -> np.ndarray:
    """Indices of the rows a query reads: those with `ctx` = `regime`, or all if pooled."""
    if ctx is None:
        rows = np.arange(data.n_rows)
    else:
        try:
            rcode = data.code_of(ctx, regime)
        except DataError:
            raise IndependenceError(
                "regime value %r is not a category of %r" % (regime, ctx)
            ) from None
        rows = np.flatnonzero(data.column(ctx) == rcode)
        if not len(rows):
            raise IndependenceError("regime value %r has no rows in the dataset" % (regime,))
    if not len(rows):
        raise IndependenceError("no rows to test")
    return rows


def g_test_tables(
    data: Dataset, queries: Sequence[CiQuery], context: str | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The contingency tables `g_test` tests, as the `(cells, tests)` of
    `g_test_stats` per block of queries in order.  A block's strata run query
    by query and, within a query, in code order: one per z value tuple its
    rows show (inside its regime, if set).  `tests[s]` is the position in
    the block of stratum s's query; counts are weighted by `counts`.

    A block closes before it counts more than `_PAIR_BUDGET` (query, row)
    pairs (one query always forms a block), and its arrays are O(pairs).
    """
    index = {c: j for j, c in enumerate(data.columns)}
    rows_of: dict[str | None, np.ndarray] = {}
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    block: list[CiQuery] = []
    pairs = 0
    for q in queries:
        ctx = _query_context(q, context)
        for col in (q.x, q.y, *q.z):
            if col not in index:
                raise DataError("unknown column %r" % (col,))
        if q.regime not in rows_of:
            rows_of[q.regime] = _regime_rows(data, ctx, q.regime)
        n = len(rows_of[q.regime])
        if block and pairs + n > _PAIR_BUDGET:
            blocks.append(_block_tables(data, index, block, rows_of))
            block, pairs = [], 0
        block.append(q)
        pairs += n
    if block:
        blocks.append(_block_tables(data, index, block, rows_of))
    return blocks


def _block_tables(data, index, block, rows_of) -> tuple[np.ndarray, np.ndarray]:
    """`g_test_tables` of one block, from two `data._ranks` passes and one
    `_tally` over its (query, row) pairs.

    A pair's stratum is the rank of its (query, z_1, z_2, ...) tuple among
    the block's, each column gathered only when the ranker reads it, with
    code 0 where a query has no j-th z column.  Its cell is the rank of its
    (stratum, x, y) tuple, and each cell's codes are read off one of its pairs.
    """
    lengths = [len(rows_of[q.regime]) for q in block]
    rows = np.concatenate([rows_of[q.regime] for q in block])
    which = np.repeat(np.arange(len(block)), lengths)
    # the codes are row-major: row i's code in column j sits at i * width + j
    flat, at = data.codes.ravel(), rows * len(data.columns)

    def codes(names):
        return flat[at + np.array([index.get(c, 0) for c in names])[which]]

    def widest(names):
        return max(len(data.labels(c)) for c in names if c is not None)

    def parts():
        yield which[:, None], (len(block),)
        for j in range(max(len(q.z) for q in block)):
            names = [q.z[j] if j < len(q.z) else None for q in block]
            code = codes(names)
            if None in names:
                code *= np.array([c is not None for c in names])[which]
            yield code[:, None], (widest(names),)

    strata, n_strata = _ranks(parts(), len(which))
    tests = np.empty(n_strata, dtype=np.int64)
    tests[strata] = which
    xs, ys = [q.x for q in block], [q.y for q in block]
    key = (strata, codes(xs), codes(ys))
    ranks, n_cells = _ranks(zip((k[:, None] for k in key), ((n_strata,), (widest(xs),),
                                                             (widest(ys),))), len(which))
    first = np.empty(n_cells, dtype=np.int64)
    first[ranks] = np.arange(len(ranks))
    counts = _tally(ranks, data.counts[rows], n_cells)
    return np.column_stack([*(k[first] for k in key), counts]), tests


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum of each consecutive run of `values`, as `np.sum` gives it on the run alone.

    Numpy's pairwise summation groups terms by the run's length, so runs of
    equal length are summed together along the last axis of one 2-D block.
    """
    sums = np.empty(len(lengths))
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths):
        which = np.flatnonzero(lengths == n)
        sums[which] = values[starts[which, None] + np.arange(n)].sum(axis=1)
    return sums


def _groups(count: np.ndarray, *keys: np.ndarray):
    """Each position's run of equal `keys` tuples, each run's first position and its `count` sum."""
    starts = np.arange(len(count)) == 0
    for key in keys:
        starts[1:] |= key[1:] != key[:-1]
    first = np.flatnonzero(starts)
    return np.cumsum(starts) - 1, first, np.add.reduceat(count, first)


def g_test_stats(
    cells: np.ndarray, tests: np.ndarray, min_expected: float = 5.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Array stage of the G-test: `(p, g, low, degenerate, tested)` of each
    test k < K = max(tests) + 1, for tables as `g_test_tables` gives them:
    `cells` the nonzero cells as integer rows (stratum, x, y, count) in code
    order, `tests[s]` the test of stratum s.  `p` and `g` are the p-value and
    statistic, `low` and `degenerate` the numbers of strata skipped by the
    low-count rule and with a single observed category, and `tested` whether
    any stratum qualified (if not, p is 1.0 and g 0.0).  A stratum is one
    with a cell: cells of count 0 are dropped.

    Applies the rules of `g_test`, reading n, the row sums (runs of (stratum,
    x)), the column sums (groups of (stratum, y)) and the observed labels off
    the cells, in O(cells) memory.  p and g are bit-identical to testing the
    dense tables one at a time: a stratum's terms are one `np.sum` over its
    cells in code order, strata are added left to right from 0.0, and the
    tail is `chdtrc`.  The least expected count is fl(fl(r_min * c_min) / n),
    rounding being monotone; the products are float64, so past 2^63 they
    round, not wrap.  `chdtrc` is imported here, on the first call, so the
    package import and the exact paths never load it.
    """
    _check_min_expected(min_expected)
    cells, tests = np.asarray(cells), np.asarray(tests)
    if cells.ndim != 2 or cells.shape[1] != 4 or tests.ndim != 1:
        raise IndependenceError("cells must have shape (C, 4) and tests shape (S,)")
    if cells.dtype.kind not in "iu":
        raise IndependenceError("tables must hold integer counts, got dtype %s" % cells.dtype)
    if tests.dtype.kind not in "iu" or len(tests) and tests.min() < 0:
        raise IndependenceError("tests must be non-negative integers")
    cells = cells.astype(np.int64, copy=False)
    if (cells[:, 3] < 0).any():
        raise IndependenceError("tables must hold non-negative counts")
    cells = cells[cells[:, 3] > 0]
    s, x, y, count = cells.T
    # a row's first nonzero step is positive iff its signs weigh 4, 2, 1 to more than 0
    ordered = np.sign(cells[1:, :3] - cells[:-1, :3]) @ np.array([4, 2, 1]) > 0
    if not ordered.all() or len(s) and (s[0] < 0 or s[-1] >= len(tests)):
        raise IndependenceError("cells must be distinct (stratum, x, y) rows in code order, "
                                "strata in 0..%d" % (len(tests) - 1))
    k = int(tests.max()) + 1 if len(tests) else 0
    # each cell's stratum, (stratum, x) row and (stratum, y) column; a stratum's
    # cells, rows and columns are consecutive, from those of its first cell
    stratum, first, n = _groups(count, s)
    row_of, row_first, rows = _groups(count, s, x)
    order = np.lexsort((y, s))
    col_sorted, col_first, cols = _groups(count[order], s[order], y[order])
    col_of = np.empty_like(col_sorted)
    col_of[order] = col_sorted
    lx = np.bincount(stratum[row_first], minlength=len(first))
    ly = np.bincount(stratum[col_first], minlength=len(first))
    degenerate = (lx < 2) | (ly < 2)
    r_min = np.minimum.reduceat(rows, row_of[first])
    c_min = np.minimum.reduceat(cols, col_sorted[first])
    low = ~degenerate & (r_min * c_min.astype(np.float64) / n < min_expected)
    used = ~(degenerate | low)

    kept = used[stratum]
    obs = count[kept]
    expected = rows[row_of[kept]] * cols[col_of[kept]].astype(np.float64) / n[stratum[kept]]
    terms = obs * np.log(obs / expected)
    owner = tests[s[first]]
    g = np.zeros(k)
    # unbuffered, in order: each test's strata are added left to right from 0.0
    np.add.at(g, owner[used], 2.0 * _run_sums(terms, (np.append(first[1:], len(s)) - first)[used]))
    df = np.bincount(owner[used], ((lx - 1) * (ly - 1))[used], minlength=k)
    tested = np.bincount(owner[used], minlength=k) > 0
    p = np.ones(k)
    positive = tested & (g > 0)
    from scipy.special import chdtrc
    p[positive] = chdtrc(df[positive], g[positive])
    return (p, g, np.bincount(owner[low], minlength=k), np.bincount(owner[degenerate], minlength=k),
            tested)


def g_test_from_tables(cells: np.ndarray, tests: np.ndarray, alpha: float,
                       min_expected: float = 5.0) -> list[CiVerdict]:
    """One G-test verdict per test of the tables `(cells, tests)`, read off
    `g_test_stats(cells, tests, min_expected)`, its warning naming the strata
    it skipped: for `g_test`, each block of sampled discovery and the
    transfer test's observed tables."""
    _check_alpha(alpha)
    p, g, low, degenerate, tested = g_test_stats(cells, tests, min_expected)
    verdicts = []
    for n_low, n_degenerate, ok, p_value, g_stat in zip(
        low.tolist(), degenerate.tolist(), tested.tolist(), p.tolist(), g.tolist(),
    ):
        notes = []
        if n_low:
            notes.append("%d strata below the expected-count floor" % n_low)
        if n_degenerate:
            notes.append("%d strata with a single observed category" % n_degenerate)
        if not ok:  # then p_value is 1.0 and g_stat 0.0
            notes.append("no qualifying strata; defaulting to independence")
        warning = "; ".join(notes) or None
        verdicts.append(CiVerdict(p_value >= alpha, p_value, g_stat, "g_test", warning))
    return verdicts
