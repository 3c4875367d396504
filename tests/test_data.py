import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_reference
import data_reference as ref
import discovery_reference
from csi_graphlab.corpus import get_example
from csi_graphlab.data import DataError, Dataset, _ranks, _tally
from csi_graphlab.exact import draw_samples
from csi_graphlab.independence import CiQuery, g_test, g_test_from_tables
from independence_reference import stack_cells


def small():
    return Dataset.from_rows(
        ("R", "X"),
        [("0", "a"), ("1", "b"), ("0", "b"), ("1", "a")],
    )


def test_from_rows_infers_sorted_categories():
    d = small()
    assert d.columns == ("R", "X")
    assert d.labels("R") == ("0", "1")
    assert d.labels("X") == ("a", "b")
    assert d.column("X").tolist() == [0, 1, 1, 0]
    assert d.n_rows == 4


def test_explicit_categories_preserve_order_and_unseen_labels():
    d = Dataset.from_rows(
        ("X",), [("hot",), ("cold",)], categories={"X": ("hot", "mild", "cold")}
    )
    assert d.labels("X") == ("hot", "mild", "cold")
    assert d.column("X").tolist() == [0, 2]
    with pytest.raises(DataError):
        Dataset.from_rows(("X",), [("boiling",)], categories={"X": ("hot",)})


def test_code_of_and_errors():
    d = small()
    assert d.code_of("X", "b") == 1
    with pytest.raises(DataError):
        d.code_of("X", "z")
    with pytest.raises(DataError):
        d.column("missing")
    with pytest.raises(DataError):
        d.labels("missing")


def test_csv_round_trip_is_byte_stable():
    d = small()
    text = d.to_csv()
    assert text.splitlines()[0] == "R,X"
    back = Dataset.from_csv(text)
    assert back.columns == d.columns
    assert back.labels("R") == d.labels("R")
    assert (back.codes == d.codes).all()
    assert back.to_csv() == text


def test_csv_labels_survive_verbatim():
    d = Dataset.from_rows(("T",), [("-1",), ("+1",), ("+1",)])
    back = Dataset.from_csv(d.to_csv())
    assert back.labels("T") == ("+1", "-1")
    assert back.column("T").tolist() == [1, 0, 0]


def test_from_csv_rejects_empty_input():
    with pytest.raises(DataError):
        Dataset.from_csv("")


def test_restrict_keeps_categories():
    d = small()
    kept = d.restrict(d.column("R") == d.code_of("R", "1"))
    assert kept.n_rows == 2
    assert kept.labels("X") == ("a", "b")
    assert kept.column("X").tolist() == [1, 0]


def test_constructor_validation():
    with pytest.raises(DataError):
        Dataset(("A", "A"), {"A": ("0",)}, np.zeros((1, 2), dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(("A",), {"A": ("0",)}, np.zeros((3,), dtype=np.int64))
    with pytest.raises(DataError):
        Dataset(("A",), {"A": ("0",)}, np.array([[1]], dtype=np.int64))


def test_from_rows_names_the_first_bad_label_in_row_major_order():
    cats = {"A": ("0", "1"), "B": ("0", "1"), "C": ("0", "1")}
    with pytest.raises(DataError, match=r"row 0: label '9' not among categories of column 'C'"):
        Dataset.from_rows(("A", "B", "C"), [("0", "1", "9"), ("1", "9", "0")], cats)


def test_header_only_csv_keeps_the_columns_and_tabulates_to_no_rows():
    d = Dataset.from_csv("R,X\n")
    assert d.n_rows == 0 and d.codes.shape == (0, 2)
    assert d.labels("X") == ("",)
    t = d.tabulate()
    assert t.n_rows == 0 and t.counts.tolist() == []


def test_no_columns_and_no_rows_tabulate_to_no_rows():
    d = Dataset.from_csv("\n")
    assert d.columns == () and d.n_rows == 0
    t = d.tabulate()
    assert t.codes.shape == (0, 0) and t.counts.tolist() == []
    assert t.to_csv() == d.to_csv() == "\n"


def tally():
    return Dataset.from_rows(
        ("R", "X"),
        [("1", "b"), ("0", "a"), ("1", "b"), ("0", "b"), ("1", "b"), ("0", "a")],
    )


def test_tabulate_keeps_distinct_rows_in_code_order():
    t = tally().tabulate()
    assert t.codes.tolist() == [[0, 0], [0, 1], [1, 1]]
    assert t.counts.tolist() == [2, 1, 3]
    assert t.categories == tally().categories
    again = t.tabulate()
    assert (again.codes == t.codes).all() and (again.counts == t.counts).all()
    assert tally().counts.dtype == np.int64 and tally().counts.tolist() == [1] * 6


def test_tabulate_sums_counts_exactly_past_2_to_53():
    codes = np.zeros((2, 2), np.int64)
    data = Dataset(["R", "X"], {"R": ("0",), "X": ("a",)}, codes, counts=[2**53, 1])
    assert data.tabulate().counts.tolist() == [2**53 + 1]


def test_restrict_and_to_csv_keep_the_counts_of_a_count_table():
    d = tally()
    t = d.tabulate()
    kept = t.restrict(t.column("R") == t.code_of("R", "1"))
    assert kept.counts.tolist() == [3]
    assert kept.counts.sum() == (d.column("R") == 1).sum()
    text = t.to_csv()
    assert len(text.splitlines()) == 1 + d.n_rows
    back = Dataset.from_csv(text).tabulate()
    assert (back.codes == t.codes).all() and (back.counts == t.counts).all()
    assert Dataset.from_csv(kept.to_csv()).n_rows == 3


def test_counts_are_validated():
    codes = np.zeros((2, 1), dtype=np.int64)
    with pytest.raises(DataError, match="one entry per row"):
        Dataset(("A",), {"A": ("0",)}, codes, np.ones(3, dtype=np.int64))
    with pytest.raises(DataError, match="positive"):
        Dataset(("A",), {"A": ("0",)}, codes, np.array([1, 0]))


def test_to_csv_of_a_count_table_is_pinned():
    quirky = Dataset.from_rows(
        ("R", "X,1", "Y"),
        [("0", "a,b", ""), ("1", 'say "hi"', " "), ("0", "a,b", ""), ("1", "", "z"),
         ("0", "a,b", "")],
    ).tabulate()
    assert quirky.to_csv() == 'R,"X,1",Y\n0,"a,b",\n0,"a,b",\n0,"a,b",\n1,,z\n1,"say ""hi""", \n'
    # csv.writer quotes a row whose only field is empty
    lone = Dataset.from_rows(("E",), [("",), ("x",), ("",)]).tabulate()
    assert lone.to_csv() == 'E\n""\n""\nx\n'
    drawn = draw_samples(get_example("intro-mediator"), 4000, 7).tabulate()
    assert drawn.counts.tolist() == [1000, 1031, 482, 483, 269, 250, 253, 232]
    assert hashlib.sha256(drawn.to_csv().encode()).hexdigest() == (
        "4b15a0b98277e52605bbdab50ca8fcdfb18f35c8527887ef94a577bd339e0232")


def test_errors_name_the_first_occurrence_of_a_repeated_bad_line():
    # a line numbered by its distinct index would be row 1
    with pytest.raises(DataError, match=r"^row 2 has 1 fields, expected 2$"):
        Dataset.from_csv("R,X\n0,a\n0,a\n1\n")
    with pytest.raises(DataError, match=r"^row 3: label '1' not among categories of column 'R'$"):
        Dataset.from_csv("R\n0\n0\n0\n1\n1\n", categories={"R": ("0",)})


def test_from_rows_numbers_repeated_rows_like_the_row_by_row_reference():
    rng = np.random.default_rng(8)
    rows = [tuple(r) for r in rng.integers(0, 3, size=(300, 3)).astype(str).tolist()]
    for cats in (None, {"A": ("2", "0", "1", "9"), "B": ("1", "0", "2"), "C": ("0", "1", "2")}):
        new = Dataset.from_rows(("A", "B", "C"), rows, cats)
        old = csv_reference.from_rows(("A", "B", "C"), rows, cats)
        assert new.categories == old.categories
        assert new.codes.dtype == old.codes.dtype and np.array_equal(new.codes, old.codes)
    with pytest.raises(DataError, match=r"^row 2 has 1 fields, expected 2$"):
        Dataset.from_rows(("R", "X"), [("0", "a"), ("0", "a"), ("1",), ("1",)])
    with pytest.raises(DataError, match=r"^row 3: label '1' not among categories of column 'R'$"):
        Dataset.from_rows(("R",), [("0",), ("0",), ("0",), ("1",), ("1",)], {"R": ("0",)})


def test_repeated_category_labels_are_named():
    match = r"^column 'R' repeats category '0'$"
    with pytest.raises(DataError, match=match):
        Dataset.from_rows(("R", "X", "Y"), [("0", "a", "c"), ("1", "b", "d")],
                          {"R": ("0", "0", "1"), "X": ("a", "b"), "Y": ("c", "d")})
    with pytest.raises(DataError, match=match):
        Dataset(("R",), {"R": ("0", "0")}, [[0], [1]])
    with pytest.raises(DataError, match=match):
        Dataset.from_csv("R\n1\n", categories={"R": ("1", "0", "2", "0")})


def test_categories_without_a_column_are_named():
    cats = {"X": ("a",)}
    match = r"^categories name no labels for column 'Y'$"
    with pytest.raises(DataError, match=match):
        Dataset.from_rows(("X", "Y"), [("a", "b")], categories=cats)
    with pytest.raises(DataError, match=match):
        Dataset.from_csv("X,Y\na,b\n", categories=cats)
    with pytest.raises(DataError, match=match):
        Dataset(("X", "Y"), cats, np.zeros((1, 2), dtype=np.int64))


@pytest.mark.parametrize("field", ["a" * 200_000, '"%s"' % ("a" * 200_000)])
def test_a_csv_parse_error_is_a_data_error(field):
    with pytest.raises(DataError, match=r"^malformed CSV: field larger than field limit"):
        Dataset.from_csv("R,X\n0,%s\n" % field)


# --- the ranker against the column-at-a-time reference ---


def recorded_bincounts(fn, *args):
    """`fn(*args)`, and the length of every `np.bincount` it returned."""
    lengths = []
    bincount = np.bincount

    def recording(*a, **k):
        out = bincount(*a, **k)
        lengths.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(np, "bincount", recording)
        return fn(*args), lengths


def parts_of(data, cols, mask, grouped):
    """The masked rows' `cols` as `_ranks` parts: runs of adjacent columns
    if `grouped`, as `Dataset._distinct` passes them, else one column each,
    as the G-test's table builder does."""
    codes = data.codes[mask]
    runs = []
    for j in map(data.columns.index, cols):
        if grouped and runs and j == runs[-1][-1] + 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    return [(codes[:, r[0]:r[-1] + 1], [len(data.labels(data.columns[j])) for j in r])
            for r in runs]


def assert_ranking_matches(data, cols, mask):
    """`_ranks` equals the reference's observed ranks, with `cols` in runs of
    adjacent columns and one at a time, and no `bincount` spans more than
    max(rows, 1) times a label count, or 16 times max(rows, 1)."""
    rows = int(mask.sum())
    widest = max((len(data.labels(c)) for c in cols), default=1)
    want = ref.stratum_ids(data, cols, mask, observed=True)
    for grouped in (True, False):
        (ids, n), lengths = recorded_bincounts(_ranks, parts_of(data, cols, mask, grouped), rows)
        assert n == want[1]
        assert ids.dtype == want[0].dtype and np.array_equal(ids, want[0])
        assert all(k <= max(rows, 1) * widest for k in lengths)
        assert all(k <= 16 * max(rows, 1) for k in lengths)


def assert_table_matches(data):
    want_ranks, want_rows = ref.distinct(data)
    (ranks, rows), lengths = recorded_bincounts(data._distinct)
    assert np.array_equal(ranks, want_ranks) and ranks.dtype == want_ranks.dtype
    assert rows.shape == want_rows.shape and np.array_equal(rows, want_rows)
    widest = max((len(data.labels(c)) for c in data.columns), default=1)
    assert all(k <= max(data.n_rows, 1) * widest for k in lengths)
    table = data.tabulate()
    assert np.array_equal(table.codes, want_rows)
    assert table.counts.dtype == np.int64
    assert np.array_equal(table.counts, _tally(want_ranks, data.counts, len(want_rows)))


def coded(rng, rows, sizes, counts=False):
    columns = tuple("C%d" % j for j in range(len(sizes)))
    cats = {c: tuple(map(str, range(k))) for c, k in zip(columns, sizes)}
    codes = np.array([rng.integers(0, k, rows) for k in sizes], dtype=np.int64).T
    weights = rng.integers(1, 5, rows) if counts else None
    return Dataset(columns, cats, codes.reshape(rows, len(sizes)), weights)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
       sizes=st.lists(st.sampled_from((1, 2, 3, 7, 50)), max_size=5),
       picks=st.lists(st.integers(0, 4), max_size=5, unique=True),
       masked=st.booleans(), counts=st.booleans())
def test_ranking_matches_the_column_at_a_time_reference(seed, rows, sizes, picks, masked,
                                                         counts):
    rng = np.random.default_rng(seed)
    data = coded(rng, rows, sizes, counts)
    cols = tuple(data.columns[j] for j in picks if j < len(sizes))
    mask = rng.random(rows) < 0.6 if masked else np.ones(rows, dtype=bool)
    assert_ranking_matches(data, cols, mask)
    assert_ranking_matches(data, data.columns, mask)
    assert_table_matches(data)


@pytest.mark.parametrize("rows, sizes", [
    (0, (3, 4)),  # no rows
    (0, ()),  # no rows and no columns
    (5, ()),  # no columns
    (20, (50, 50, 50)),  # every column takes the code space past the rows
    (7, (2, 1, 5, 2)),
])
def test_ranking_matches_the_reference_on_edge_shapes(rows, sizes):
    rng = np.random.default_rng(rows + len(sizes))
    data = coded(rng, rows, sizes, counts=True)
    for mask in (np.ones(rows, dtype=bool), np.arange(rows) % 3 == 1):
        assert_ranking_matches(data, data.columns, mask)
        assert_ranking_matches(data, data.columns[::-1], mask)
    assert_table_matches(data)


def test_ranking_stays_within_rows_times_labels_on_wide_columns():
    # 2,000 rows over X, Y (2 labels each) and A, B (3,000 labels each)
    rng = np.random.default_rng(51)
    data = coded(rng, 2000, (2, 2, 3000, 3000))
    assert_ranking_matches(data, ("C0", "C1", "C2", "C3"), np.ones(2000, bool))
    assert_ranking_matches(data, ("C2", "C3"), data.column("C0") == 1)
    assert_table_matches(data)
    parts = parts_of(data, data.columns, np.ones(2000, bool), grouped=True)
    (_, n), lengths = recorded_bincounts(_ranks, parts, 2000)
    assert n == 2000 and max(lengths) <= 2000 * 3000


def test_wide_labels_are_ranked_in_memory_bounded_by_the_rows():
    # 2,000 rows over X, Y (2 labels each) and A, B (3,000 labels each): ranking by
    # bincount over the key space peaked at 70.8 MiB in g_test and 90.0 MiB in tabulate
    rng = np.random.default_rng(51)
    sizes = {"X": 2, "Y": 2, "A": 3000, "B": 3000}
    codes = np.array([rng.integers(0, k, 2000) for k in sizes.values()]).T
    data = Dataset(tuple(sizes), {c: tuple(map(str, range(k))) for c, k in sizes.items()}, codes)
    q = CiQuery("X", "Y", ("A", "B"))

    def peak(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    verdict, g_peak = peak(lambda: g_test(data, q, 0.05))
    table, table_peak = peak(data.tabulate)
    assert g_peak < 4 << 20 and table_peak < 4 << 20, (g_peak, table_peak)
    assert verdict == g_test_from_tables(
        *stack_cells(discovery_reference.g_test_table(data, q)[None]), 0.05)[0]
    want_ranks, want_rows = ref.distinct(data)
    assert np.array_equal(table.codes, want_rows)
    assert np.array_equal(table.counts, _tally(want_ranks, data.counts, len(want_rows)))
