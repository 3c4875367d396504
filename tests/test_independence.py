import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import chi2

import csi_graphlab
import discovery_reference as ref
from csi_graphlab import discovery, independence
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.data import Dataset, _ranks
from csi_graphlab.discovery import SampleTester, detect_graph, skeleton_masked, skeleton_pooled
from csi_graphlab.exact import SolvedModel, draw_samples, joint_pmf
from csi_graphlab.independence import (
    CiQuery,
    IndependenceError,
    ci_exact,
    conditional_mutual_information,
    g_test,
    g_test_from_tables,
    g_test_stats,
    g_test_tables,
    subsets,
)
from csi_graphlab.laws import RandomModelSpec, random_scm
from csi_graphlab.scm import MechanismTable, NoiseSpec, Scm, VariableSpec
from fraction_reference import conditional_mutual_information as reference_mi, fraction_pmf
from independence_reference import dense_g_test_stats, stack_cells


def intro_joint():
    return joint_pmf(get_example("intro"))


def two_coins():
    variables = (
        VariableSpec("R", ("0", "1")),
        VariableSpec("A", ("0", "1")),
        VariableSpec("B", ("0", "1")),
    )
    half = Fraction(1, 2)
    noises = {v.name: NoiseSpec(v.name, (("0", half), ("1", half))) for v in variables}
    mechanisms = {
        v.name: MechanismTable.from_function(v.name, (), (), ["0", "1"], lambda n: n)
        for v in variables
    }
    return Scm(variables, "R", noises, mechanisms)


def test_query_validation():
    with pytest.raises(IndependenceError):
        CiQuery("X", "X")
    with pytest.raises(IndependenceError):
        CiQuery("X", "Y", ("X",))
    with pytest.raises(IndependenceError):
        ci_exact(intro_joint(), CiQuery("T", "Y", regime="0"), context=None)
    with pytest.raises(IndependenceError):
        ci_exact(intro_joint(), CiQuery("T", "R", regime="0"), context="R")


def test_exact_verdicts_on_intro():
    p = intro_joint()
    masked0 = ci_exact(p, CiQuery("T", "Y", regime="0"), context="R")
    assert masked0.independent and masked0.p_value == 1.0
    masked1 = ci_exact(p, CiQuery("T", "Y", regime="1"), context="R")
    assert not masked1.independent and masked1.p_value == 0.0
    pooled = ci_exact(p, CiQuery("T", "Y"))
    assert not pooled.independent
    given_r = ci_exact(p, CiQuery("T", "Y", ("R",)))
    assert not given_r.independent  # the r=1 stratum breaks factorization


def test_exact_verdict_is_per_stratum():
    # Dependence confined to one regime stratum still fails the query.
    p = joint_pmf(get_example("non-markov(1/3)"))
    v = ci_exact(p, CiQuery("X", "Y", regime="b0"), context="R")
    assert not v.independent
    mi = conditional_mutual_information(p, CiQuery("X", "Y", regime="b0"), context="R")
    assert abs(mi - 0.0566) < 5e-4


def test_unrelated_variable_leaves_verdicts_unchanged():
    base = two_coins()
    p = joint_pmf(base)
    for q in [CiQuery("A", "B"), CiQuery("A", "B", ("R",))]:
        assert ci_exact(p, q).independent
    # MI of independent coins is exactly zero
    assert conditional_mutual_information(p, CiQuery("A", "B")) == 0.0


def test_zero_probability_regime_errors():
    p = joint_pmf(get_example("p1-limit"))
    with pytest.raises(IndependenceError):
        ci_exact(p, CiQuery("T", "Y", regime="1"), context="R")


def test_mi_nonnegative_and_zero_iff_independent():
    p = intro_joint()
    mi0 = conditional_mutual_information(p, CiQuery("T", "Y", regime="0"), context="R")
    assert mi0 == 0.0
    mi1 = conditional_mutual_information(p, CiQuery("T", "Y", regime="1"), context="R")
    assert mi1 > 0.01
    # hand value: given R=1, T uniform on {-1,+1}; Y spreads by eta
    # I(T;Y|R=1) = H(Y|R=1) - H(Y|T,R=1) = (1.5 - 1) * ln 2
    assert abs(mi1 - 0.5 * math.log(2)) < 1e-12


@pytest.mark.parametrize("name", list_examples())
def test_mi_is_bit_identical_to_the_fraction_reference(name):
    # int / int and float(Fraction) are both correctly rounded
    sm = SolvedModel.of(get_example(name))
    names = sm.table.variables
    ctx = sm.scm.context_variable
    fractions = fraction_pmf(sm.joint)
    for x, y in itertools.combinations(names, 2):
        for z in subsets([v for v in names if v not in (x, y)]):
            regimes = (None,) if ctx in (x, y, *z) else (None, *sm.regimes)
            for r in regimes:
                q = CiQuery(x, y, z, r)
                got = conditional_mutual_information(sm.joint, q, context=ctx)
                assert got == reference_mi(fractions, q, context=ctx), q


def test_g_test_flags_dependence_with_enough_data():
    s = get_example("intro")
    d = draw_samples(s, 10_000, seed=5)
    dep = g_test(d, CiQuery("T", "Y", regime="1"), alpha=0.05, context="R")
    assert not dep.independent
    assert dep.p_value < 1e-6


def test_g_test_degenerate_stratum_returns_independent_with_warning():
    s = get_example("intro")
    d = draw_samples(s, 4_000, seed=5)
    v = g_test(d, CiQuery("T", "Y", regime="0"), alpha=0.05, context="R")
    assert v.independent and v.p_value == 1.0
    assert v.warning is not None and "no qualifying strata" in v.warning


def test_g_test_skips_thin_strata():
    s = get_example("intro")
    d = draw_samples(s, 40, seed=2)
    v = g_test(d, CiQuery("T", "Y", regime="1"), alpha=0.05, context="R",
               min_expected=10_000.0)
    assert v.independent and v.p_value == 1.0
    assert v.warning is not None


def test_g_test_calibration_under_null():
    s = two_coins()
    rejections = 0
    trials = 60
    for seed in range(trials):
        d = draw_samples(s, 2000, seed=seed)
        v = g_test(d, CiQuery("A", "B"), alpha=0.05)
        rejections += 0 if v.independent else 1
    assert rejections / trials < 0.15


def test_g_test_agrees_with_exact_oracle_when_signal_is_strong():
    m = SolvedModel.of(get_example("non-markov(1/3)"))
    d = draw_samples(m.scm, 10_000, seed=9, table=m.table)
    sampled = g_test(d, CiQuery("X", "Y", regime="b0"), alpha=0.05, context="R")
    exact = ci_exact(m.joint, CiQuery("X", "Y", regime="b0"), context="R")
    assert sampled.independent == exact.independent == False  # noqa: E712


def test_g_test_rejects_bad_alpha_and_empty_selection():
    d = draw_samples(get_example("intro"), 100, seed=1)
    with pytest.raises(IndependenceError):
        g_test(d, CiQuery("T", "Y"), alpha=0.0)
    with pytest.raises(IndependenceError):
        g_test(d, CiQuery("T", "Y", regime="7"), alpha=0.05, context="R")


@pytest.mark.parametrize("min_expected", [float("nan"), -1.0])
def test_g_test_rejects_a_nan_or_negative_min_expected(min_expected):
    # 7 rows: every stratum is below the floor of 5, so the rule decides the verdict
    d = Dataset.from_rows(("X", "Y"), [("a", "a")] * 3 + [("b", "b")] * 3 + [("a", "b")])
    q = CiQuery("X", "Y")
    v = g_test(d, q, alpha=0.05)
    assert v.independent and v.warning.endswith("no qualifying strata; defaulting to independence")
    named = "got %s$" % re.escape(repr(min_expected))
    with pytest.raises(IndependenceError, match=named):
        g_test(d, q, alpha=0.05, min_expected=min_expected)
    with pytest.raises(IndependenceError, match=named):
        g_test_from_tables(*g_test_tables(d, [q])[0], 0.05, min_expected)


# --- the stacked G-test kernel against the one-table-at-a-time loop it replaced ---


def reference_g_test(tables, alpha, min_expected=5.0):
    """The per-stratum G-test loop with `chi2.sf`, kept as the reference."""
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
    notes = []
    if skipped_low:
        notes.append("%d strata below the expected-count floor" % skipped_low)
    if degenerate:
        notes.append("%d strata with a single observed category" % degenerate)
    if used == 0:
        notes.append("no qualifying strata; defaulting to independence")
        return (True, 1.0, 0.0, "; ".join(notes))
    p_value = float(chi2.sf(g_stat, df))
    return (p_value >= alpha, p_value, g_stat, "; ".join(notes) or None)


def _bits(independent, p_value, statistic, warning):
    return (independent, p_value.hex(), statistic.hex(), warning)


def assert_kernel_matches_reference(stack, alpha=0.05, min_expected=5.0):
    """The kernel, handed the stack's nonzero cells, against the loop over each
    test's strata that hold a cell: an all-zero stratum is no stratum."""
    stack = np.asarray(stack, dtype=np.int64)
    got = g_test_from_tables(*stack_cells(stack), alpha, min_expected)
    assert len(got) == len(stack)
    for verdict, tables in zip(got, stack):
        assert verdict.method == "g_test"
        want = reference_g_test(tables[tables.any(axis=(1, 2))], alpha, min_expected)
        assert _bits(verdict.independent, verdict.p_value, verdict.statistic,
                     verdict.warning) == _bits(*want)


def _independent_table(rows, cols, scale):
    return np.outer(rows, cols) * scale


KERNEL_CASES = {
    "zero row and column": [[[[30, 0, 12], [0, 0, 0], [9, 0, 40]]]],
    "single observed category": [[[[20, 30], [0, 0]], [[0, 7], [0, 9]]]],
    "below the expected-count floor": [[[[3, 1], [2, 6]], [[40, 20], [25, 35]]]],
    "no stratum qualifies": [[[[0, 0], [0, 0]], [[2, 1], [1, 3]], [[5, 0], [0, 0]]]],
    "eight or more cells": [[[[31, 12, 40, 9], [18, 25, 11, 30], [22, 8, 19, 27]]],
                            [[[60, 55, 52, 49], [61, 0, 50, 57], [59, 44, 0, 63]]]],
    "near independence": [[_independent_table([3, 5, 2], [4, 1, 6, 2], 7)],
                          [_independent_table([3, 5, 2], [4, 1, 6, 2], 7)
                           + np.eye(3, 4, dtype=np.int64)]],
    "statistic rounds below zero": [[[[9554173, 1313672], [2297436, 315891]]]],
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_stacked_kernel_matches_the_per_table_loop(case):
    assert_kernel_matches_reference(KERNEL_CASES[case])


@st.composite
def table_stacks(draw):
    k, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    stack = np.zeros((k, s, nx, ny), dtype=np.int64)
    for i in range(k):
        for j in range(s):
            kind = draw(st.sampled_from(("dense", "sparse", "independent", "zero")))
            if kind == "dense":
                cells = draw(st.lists(st.integers(0, 400), min_size=nx * ny, max_size=nx * ny))
                stack[i, j] = np.reshape(cells, (nx, ny))
            elif kind == "sparse":
                cells = draw(st.lists(st.sampled_from((0, 0, 0, 1, 2, 9)),
                                      min_size=nx * ny, max_size=nx * ny))
                stack[i, j] = np.reshape(cells, (nx, ny))
            elif kind == "independent":
                rows = draw(st.lists(st.integers(1, 9), min_size=nx, max_size=nx))
                cols = draw(st.lists(st.integers(1, 9), min_size=ny, max_size=ny))
                table = _independent_table(rows, cols, draw(st.integers(1, 6)))
                table[draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))] += draw(
                    st.integers(0, 2))
                stack[i, j] = table
    return stack


@settings(max_examples=300, deadline=None)
@given(stack=table_stacks(), alpha=st.sampled_from((0.01, 0.05, 0.5)),
       min_expected=st.sampled_from((0.0, 5.0, 20.0)))
def test_stacked_kernel_matches_the_per_table_loop_on_random_stacks(stack, alpha, min_expected):
    assert_kernel_matches_reference(stack, alpha, min_expected)


def _verdict_bits(verdicts):
    return [_bits(v.independent, v.p_value, v.statistic, v.warning) for v in verdicts]


@pytest.mark.parametrize("tables, named", [
    ([[[[-10, 50], [30, 40]]]], "non-negative counts"),
    ([[[[10.7, 50], [30, 40]]]], "integer counts"),
    (np.full((1, 1, 2, 2), 10.0), "integer counts"),
    ([[[[True, False], [False, True]]]], "integer counts"),
])
def test_stacked_kernel_rejects_negative_or_fractional_counts(tables, named):
    with pytest.raises(IndependenceError, match=named):
        g_test_from_tables(*stack_cells(tables), 0.05)


@st.composite
def small_datasets(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=5, max_size=5))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, sizes, size=(n, 5))
    if draw(st.booleans()):  # leave most (Z1, Z2) strata empty
        codes[:, 4] = codes[:, 3] % sizes[4]
    return Dataset.from_rows(("R", "X", "Y", "Z1", "Z2"), codes.astype(str).tolist())


def reference_stratum_tables(data, q, context):
    """Per-stratum (x, y) tables of the query's rows, strata in ascending code order."""
    rows = np.ones(data.n_rows, dtype=bool)
    if q.regime is not None:
        rows = data.column(context) == data.code_of(context, q.regime)
    x, y = data.column(q.x), data.column(q.y)
    tables = {}
    for i in np.flatnonzero(rows):
        key = tuple(int(data.column(c)[i]) for c in q.z)
        table = tables.setdefault(key, np.zeros((len(data.labels(q.x)), len(data.labels(q.y))),
                                                dtype=np.int64))
        table[x[i], y[i]] += 1
    return [tables[key] for key in sorted(tables)]


@settings(max_examples=150, deadline=None)
@given(data=small_datasets(), z=st.sampled_from(((), ("Z1",), ("Z1", "Z2"), ("Z2", "Z1"))),
       pooled=st.booleans())
def test_g_test_matches_the_per_table_loop_on_sampled_rows(data, z, pooled):
    regime = None if pooled else data.labels("R")[0]
    q = CiQuery("X", "Y", z, regime=regime)
    got = g_test(data, q, alpha=0.05, context="R")
    want = reference_g_test(reference_stratum_tables(data, q, "R"), 0.05)
    assert _bits(got.independent, got.p_value, got.statistic, got.warning) == _bits(*want)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
       sizes=st.lists(st.one_of(st.integers(1, 5), st.integers(1, 5000)), max_size=4),
       split=st.integers(0, 4))
def test_ranks_are_ranks_of_the_mixed_radix_codes(seed, rows, sizes, split):
    # up to 5,000 labels over at most 40 rows: both the bincount and the sort ranking run
    rng = np.random.default_rng(seed)
    codes = np.array([rng.integers(0, k, rows) for k in sizes], dtype=np.int64)
    codes = codes.T.reshape(rows, len(sizes))
    ranks, n = _ranks([(codes[:, :split], sizes[:split]), (codes[:, split:], sizes[split:])],
                      rows)
    mixed = np.zeros(rows, dtype=np.int64)
    for j, k in enumerate(sizes):
        mixed = mixed * k + codes[:, j]
    present, want = np.unique(mixed, return_inverse=True)
    assert n == len(present)
    assert ranks.dtype == np.int64 and np.array_equal(ranks, want)


# --- the count table against the raw rows ---


@st.composite
def categorical_datasets(draw):
    """Rows over R, X, Y, Z1, Z2, with declared categories that may exceed the
    observed ones, columns with a single category and few rows per stratum."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=5, max_size=5))
    extra = draw(st.lists(st.integers(0, 2), min_size=5, max_size=5))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, sizes, size=(n, 5))
    if draw(st.booleans()):  # leave most (Z1, Z2) strata empty
        codes[:, 4] = codes[:, 3] % sizes[4]
    columns = ("R", "X", "Y", "Z1", "Z2")
    categories = {c: tuple("c%d" % i for i in range(k + e))
                  for c, k, e in zip(columns, sizes, extra)}
    return Dataset(columns, categories, codes)


def _verdict_or_error(data, q, **kw):
    try:
        return g_test(data, q, **kw)
    except IndependenceError as e:
        return ("IndependenceError", str(e))


@settings(max_examples=200, deadline=None)
@given(data=categorical_datasets(),
       z=st.sampled_from(((), ("Z1",), ("Z1", "Z2"), ("Z2", "Z1"), ("Z2", "Z1", "R"))),
       regime=st.integers(-1, 5), swap=st.booleans(),
       min_expected=st.sampled_from((0.0, 5.0, 40.0)))
def test_g_test_on_the_count_table_equals_the_raw_rows(data, z, regime, swap, min_expected):
    labels = data.labels("R")
    pooled = regime < 0 or "R" in z
    q = CiQuery(*(("Y", "X") if swap else ("X", "Y")), z,
                regime=None if pooled else labels[regime % len(labels)])
    table = data.tabulate()
    assert table.n_rows <= data.n_rows and table.counts.sum() == data.n_rows
    kw = dict(alpha=0.05, context="R", min_expected=min_expected)
    assert _verdict_or_error(table, q, **kw) == _verdict_or_error(data, q, **kw)


def test_a_regime_without_rows_fails_alike_on_the_count_table():
    data = Dataset(("R", "X", "Y"), {"R": ("0", "1", "2"), "X": ("a", "b"), "Y": ("a", "b")},
                   np.array([[0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 0, 0]]))
    q = CiQuery("X", "Y", regime="2")
    want = _verdict_or_error(data, q, alpha=0.05, context="R")
    assert want == ("IndependenceError", "regime value '2' has no rows in the dataset")
    assert _verdict_or_error(data.tabulate(), q, alpha=0.05, context="R") == want


def test_count_table_of_a_code_space_beyond_int64():
    # 5^30 > 2^63: a raw mixed-radix row code would overflow
    rng = np.random.default_rng(4)
    columns = tuple("V%d" % i for i in range(30))
    codes = rng.integers(0, 5, size=(3000, 30))
    codes[:, 1] = (codes[:, 0] + (rng.random(3000) < 0.2)) % 5
    codes[1000:, 2:] = codes[:1000, 2:][rng.integers(0, 1000, size=2000)]
    data = Dataset(columns, {c: tuple("abcde") for c in columns}, codes)
    table = data.tabulate()
    rows, counts = np.unique(codes, axis=0, return_counts=True)
    assert np.array_equal(table.codes, rows) and np.array_equal(table.counts, counts)
    for q in (CiQuery("V0", "V1"), CiQuery("V0", "V1", tuple(columns[2:7])),
              CiQuery("V3", "V2", tuple(reversed(columns[4:30])))):
        assert g_test(table, q, alpha=0.05) == g_test(data, q, alpha=0.05)


def test_wide_endpoints_are_tested_in_memory_bounded_by_the_rows():
    # 2,000 rows over X, Y (2 labels each) and A, B (3,000 labels each): tables dense
    # over the endpoints' labels took (1, 1474, 2, 3000) and (1, 2, 3000, 3000) cells
    # for these queries, and g_test peaked at 245 and 429 MiB
    rng = np.random.default_rng(51)
    sizes = {"X": 2, "Y": 2, "A": 3000, "B": 3000}
    codes = np.array([rng.integers(0, k, 2000) for k in sizes.values()]).T
    data = Dataset(tuple(sizes), {c: tuple(map(str, range(k))) for c, k in sizes.items()}, codes)
    table = data.tabulate()
    for q in (CiQuery("X", "A", ("B",)), CiQuery("A", "B", ("X",))):
        verdicts = []
        for source in (data, table):
            tracemalloc.start()
            try:
                verdicts.append(g_test(source, q, 0.05))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20, (q, source.n_rows, peak)
        assert verdicts[0] == verdicts[1]
        assert verdicts[0].warning.endswith("no qualifying strata; defaulting to independence")


@pytest.mark.parametrize("budget", [independence._PAIR_BUDGET, 61, 1])
def test_one_pass_tables_equal_the_per_query_reference(budget, monkeypatch):
    """Every table `g_test_tables` builds holds the nonzero cells of the
    per-query reference's, on raw rows and on the count table, for budgets that
    cut a call into blocks of one query or several; no block counts more
    (query, row) pairs than the budget or the largest query's rows."""
    blocks = []
    tally = independence._tally

    def recording_tally(ids, counts, n):
        blocks.append(len(ids))
        return tally(ids, counts, n)

    monkeypatch.setattr(independence, "_PAIR_BUDGET", budget)
    monkeypatch.setattr(independence, "_tally", recording_tally)
    for n_vars, seed in ((6, 11), (7, 12), (8, 13)):
        data = ref.random_samples(n_vars, seed, 2000)
        for source in (data, data.tabulate()):
            queries = ref.every_query(source, 3)
            blocks.clear()
            ref.assert_tables_match(source, queries)
            rows = [source.n_rows if q.regime is None else
                    int(np.count_nonzero(source.column("R") == source.code_of("R", q.regime)))
                    for q in queries]
            assert sum(blocks) == sum(rows)
            assert max(blocks) <= max(budget, max(rows))
            if budget == 1:
                assert len(blocks) == len(queries)
            elif source is not data:  # the count table's few rows: several queries a block
                assert len(blocks) < len(queries)
    assert g_test_tables(data, []) == []


def test_sample_tester_verdicts_equal_fresh_g_tests(monkeypatch):
    m = random_scm(RandomModelSpec(n_vars=6, max_domain=3, seed=3))
    data = draw_samples(m.scm, 3000, 5, m.solved.table)
    tester = SampleTester(data, 0.01, "R")
    decided, answered = [], []
    build, answer = discovery.g_test_tables, tester.step_hits

    def recording_build(table, queries, context=None):
        decided.extend(queries)
        return build(table, queries, context)

    def recording(runs):
        # a run's first query is always read
        answered.extend(run[0] for run in runs if run[0] in tester._memo)
        return answer(runs)

    monkeypatch.setattr(discovery, "g_test_tables", recording_build)
    tester.step_hits = recording
    skeleton_pooled(tester)
    for r in tester.regimes:
        skeleton_masked(tester, r)
        detect_graph(tester, r)
    assert answered  # the memo answered some
    assert len(decided) == len(set(decided))  # each query decided once
    assert set(decided) == set(tester._memo)
    for q, verdict in tester._memo.items():
        assert verdict == g_test(data, q, 0.01, context="R")


def test_sample_tester_memo_keeps_pair_and_z_order():
    rng = np.random.default_rng(33)
    codes = rng.integers(0, 3, size=(rng.integers(200, 2000), 5))
    data = Dataset.from_rows(("R", "X", "Y", "Z1", "Z2"), codes.astype(str).tolist())
    tester = SampleTester(data, 0.05, "R")
    orders = [(x, y, z) for x, y in (("X", "Y"), ("Y", "X")) for z in (("Z1", "Z2"), ("Z2", "Z1"))]
    for x, y, z in orders + orders:
        assert tester.test(x, y, z) == g_test(data, CiQuery(x, y, z), 0.05, context="R")
    # each order sums G in its own float order
    assert len({tester.test(*o).statistic for o in orders}) == 4


def test_expected_counts_past_2_to_63_do_not_wrap():
    # each stratum's row sum times column sum is 1600 * 2^64 at scale 2^32; in
    # int64 it wrapped to 0, and the stratum fell below the expected-count floor
    small = np.array([[[[30, 10], [10, 30]]]])
    [want] = g_test_from_tables(*stack_cells(small), 0.05)
    [got] = g_test_from_tables(*stack_cells(small * 2**32), 0.05)
    assert not want.independent and not got.independent
    assert got.warning is None
    assert math.isclose(got.statistic, 2**32 * want.statistic, rel_tol=1e-9)


@st.composite
def large_count_stacks(draw):
    """Stacks whose row and column sums stay below 2^31, so products stay below 2^62."""
    k, s = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    nx, ny = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    cells = draw(st.lists(st.integers(0, 2**29), min_size=k * s * nx * ny,
                          max_size=k * s * nx * ny))
    return np.reshape(cells, (k, s, nx, ny))


@settings(max_examples=200, deadline=None)
@given(stack=large_count_stacks())
def test_float_expected_counts_match_the_integer_products_below_2_to_63(stack):
    assert_kernel_matches_reference(stack)


@settings(max_examples=200, deadline=None)
@given(stack=table_stacks(), min_expected=st.sampled_from((0.0, 5.0, 20.0)))
def test_the_array_stage_gives_the_numbers_of_the_verdicts(stack, min_expected):
    p, g, low, degenerate, tested = g_test_stats(*stack_cells(stack), min_expected)
    verdicts = g_test_from_tables(*stack_cells(stack), 0.05, min_expected)
    assert [x.hex() for x in p] == [v.p_value.hex() for v in verdicts]
    assert [x.hex() for x in g] == [v.statistic.hex() for v in verdicts]
    for n_low, n_degenerate, ok, v in zip(low, degenerate, tested, verdicts):
        warning = v.warning or ""
        assert (n_low > 0) == ("%d strata below the expected-count floor" % n_low in warning)
        assert (n_degenerate > 0) == (
            "%d strata with a single observed category" % n_degenerate in warning)
        assert ok == ("no qualifying strata" not in warning)


@st.composite
def wide_count_stacks(draw):
    """Stacks of up to 5 tests of up to 5 strata, some all zero, over up to
    6x6 labels, with counts up to 10^6."""
    k, s = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    top = draw(st.sampled_from((3, 50, 10**6)))
    cells = draw(st.lists(st.integers(0, top), min_size=k * s * nx * ny,
                          max_size=k * s * nx * ny))
    stack = np.reshape(np.array(cells, dtype=np.int64), (k, s, nx, ny))
    zero = draw(st.lists(st.booleans(), min_size=k * s, max_size=k * s))
    stack[np.array(zero, dtype=bool).reshape(k, s)] = 0
    return stack


@settings(max_examples=400, deadline=None)
@given(stack=wide_count_stacks(), min_expected=st.sampled_from((0.0, 5.0, 20.0)))
def test_the_cell_kernel_equals_the_dense_reference(stack, min_expected):
    p, g, low, degenerate, tested = g_test_stats(*stack_cells(stack), min_expected)
    want = dense_g_test_stats(stack, min_expected)
    assert [x.hex() for x in p] == [x.hex() for x in want[0]]
    assert [x.hex() for x in g] == [x.hex() for x in want[1]]
    # the dense kernel counts an all-zero stratum as one with a single observed category
    empty = (~stack.any(axis=(2, 3))).sum(axis=1)
    assert low.tolist() == want[2].tolist()
    assert degenerate.tolist() == (want[3] - empty).tolist()
    assert tested.tolist() == want[4].tolist()


def test_stacked_kernel_validates_its_input():
    one = stack_cells(np.ones((1, 1, 2, 2), dtype=np.int64))
    with pytest.raises(IndependenceError):
        g_test_from_tables(*one, alpha=1.0)
    with pytest.raises(IndependenceError):
        g_test_from_tables(one[0][:, :3], one[1], alpha=0.05)
    with pytest.raises(IndependenceError):
        g_test_stats(one[0], one[1][:, None])
    with pytest.raises(IndependenceError, match="min_expected"):
        g_test_stats(*one, float("nan"))
    assert g_test_from_tables(*stack_cells(np.zeros((0, 1, 2, 2), dtype=np.int64)),
                              alpha=0.05) == []
    assert all(len(a) == 0 for a in g_test_stats(*stack_cells(np.zeros((0, 1, 2, 2),
                                                                        dtype=np.int64))))


@pytest.mark.parametrize("cells, tests, named", [
    ([[0, 1, 0, 5], [0, 0, 1, 5]], [0], "code order"),  # x runs backwards
    ([[0, 0, 1, 5], [0, 0, 1, 5]], [0], "code order"),  # a cell twice
    ([[1, 0, 0, 5], [0, 1, 1, 5]], [0, 0], "code order"),  # strata out of order
    ([[0, 0, 0, 5], [2, 1, 1, 5]], [0, 0], r"strata in 0\.\.1"),  # a stratum without a test
    ([[-1, 0, 0, 5]], [0], r"strata in 0\.\.0"),
    ([[0, 0, 0, 5]], [-1], "tests must be non-negative integers"),
    ([[0, 0, 0, 5]], [0.0], "tests must be non-negative integers"),
])
def test_the_cell_kernel_rejects_cells_out_of_code_order(cells, tests, named):
    with pytest.raises(IndependenceError, match=named):
        g_test_stats(np.array(cells), np.array(tests))


def test_the_cell_kernel_drops_zero_cells_and_strata_without_cells():
    stack = np.array([[[[20, 0], [6, 18]], [[0, 0], [0, 0]], [[9, 3], [4, 11]]]])
    cells, tests = stack_cells(stack)
    want = g_test_stats(cells, tests)
    assert want[3].tolist() == [0]  # the all-zero stratum counts nowhere
    # the zero cell (0, 0, 1) in its place, and a second test whose strata have no cells
    zero = np.insert(cells, 1, [0, 0, 1, 0], axis=0)
    got = g_test_stats(zero, np.append(tests, [1, 1]))
    assert [a[:1].tolist() for a in got] == [a.tolist() for a in want]
    assert [a[1:].tolist() for a in got] == [[1.0], [0.0], [0], [0], [False]]


def test_package_import_leaves_scipy_stats_out():
    package_root = str(Path(csi_graphlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, csi_graphlab; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"
