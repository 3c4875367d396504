"""Distinct-record CSV I/O against its row-by-row reference.

`Dataset.from_csv` must give the reference's columns, categories and codes,
or its error; `Dataset.to_csv` its bytes; `Dataset.tabulate_csv` the count
table of `from_csv`, or its error.  Two errors changed on purpose: a
`csv.Error` becomes a `DataError` with the same text, and a `categories`
mapping without a column raises a `DataError` naming it, not a `KeyError`.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_reference as ref
from csi_graphlab import data as data_module
from csi_graphlab.data import DataError, Dataset

COLUMNS = ("R", "X", "Y,1", "")
# labels that csv.writer writes bare, then those it quotes
PLAIN = ("0", "1", "a", "", " ", "\x0b", "\x1c", "\x85")
LABELS = PLAIN + ("a,b", 'q"x', "\r", "\n", "\r\n")
# raw fragments: every character csv.reader treats specially, and some it keeps
FRAGMENTS = ("0", "1", "a", ",", '"', "\r", "\n", "\r\n", " ", "\x0b", "\x1c", "\x85")


def outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as e:  # compared with the reference's exception below
        return None, e


def assert_same_error(new_err, ref_err):
    assert new_err is not None, "reference raised %r" % (ref_err,)
    if isinstance(ref_err, KeyError):
        assert type(new_err) is DataError
        assert str(new_err) == "categories name no labels for column %r" % (ref_err.args[0],)
    elif isinstance(ref_err, csv.Error):
        assert type(new_err) is DataError
        assert str(new_err) == "malformed CSV: %s" % (ref_err,)
    else:
        assert (type(new_err), str(new_err)) == (type(ref_err), str(ref_err))


def assert_same_dataset(new, old):
    assert new.columns == old.columns
    assert new.categories == old.categories
    assert new.codes.dtype == old.codes.dtype and new.codes.shape == old.codes.shape
    assert (new.codes == old.codes).all()
    assert new.counts.dtype == np.int64 and (new.counts == 1).all()
    assert (new.counts == old.counts).all()


def assert_from_csv_matches(text, categories=None):
    old, ref_err = outcome(ref.from_csv, text, categories)
    new, new_err = outcome(Dataset.from_csv, text, categories)
    if ref_err is not None:
        assert_same_error(new_err, ref_err)
    else:
        assert new_err is None, "reference parsed, package raised %r" % (new_err,)
        assert_same_dataset(new, old)
        assert new.to_csv() == ref.to_csv(old)


@st.composite
def written_texts(draw):
    """CSV as csv.writer writes it, with LF or CRLF, repeated records, blank
    lines and ragged rows, maybe without a final line end; plain labels keep
    it on the line path."""
    columns = draw(st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True))
    labels = st.sampled_from(draw(st.sampled_from((PLAIN, LABELS))))
    pool = draw(st.lists(
        st.one_of(
            st.lists(labels, min_size=len(columns), max_size=len(columns)),
            st.lists(labels, max_size=len(columns) + 1),
        ),
        min_size=1, max_size=4,
    ))
    rows = draw(st.lists(st.sampled_from(pool), max_size=12))
    out = io.StringIO()
    csv.writer(out, lineterminator=draw(st.sampled_from(("\n", "\r\n")))).writerows(
        [columns, *rows])
    text = out.getvalue()
    if draw(st.booleans()):
        text = text[:-1]
    return text


@st.composite
def raw_texts(draw):
    """Text cut from fragments, malformed quoting and stray \\r included."""
    lines = draw(st.lists(st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
                          max_size=10))
    return "\n".join(draw(st.sampled_from(lines)) if lines and draw(st.booleans()) else line
                     for line in lines) + draw(st.sampled_from(("", "\n")))


@st.composite
def categories_for(draw, text):
    """None, or explicit categories over the header's columns: maybe with a
    column missing, labels missing or unseen labels added."""
    if draw(st.booleans()):
        return None
    try:
        header = next(csv.reader(io.StringIO(text)))
    except (StopIteration, csv.Error):
        header = []
    names = draw(st.lists(st.sampled_from(header), unique=True)) if header else []
    if draw(st.booleans()):
        names = list(dict.fromkeys(header))
    return {c: tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6,
                                   unique=True)))
            for c in names}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_from_csv_matches_the_reference(data):
    text = data.draw(st.one_of(written_texts(), raw_texts()))
    assert_from_csv_matches(text, data.draw(categories_for(text)))


def assert_tabulate_csv_matches(text, categories=None):
    """`tabulate_csv` gives `from_csv(...).tabulate()`, or its exception."""
    old, old_err = outcome(lambda: Dataset.from_csv(text, categories).tabulate())
    new, new_err = outcome(Dataset.tabulate_csv, text, categories)
    if old_err is not None:
        assert new_err is not None, "from_csv raised %r" % (old_err,)
        assert (type(new_err), str(new_err)) == (type(old_err), str(old_err))
        return
    assert new_err is None, "from_csv parsed, tabulate_csv raised %r" % (new_err,)
    assert new.columns == old.columns
    assert new.categories == old.categories
    for a, b in ((new.codes, old.codes), (new.counts, old.counts)):
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape
        assert np.array_equal(a, b)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_tabulate_csv_is_from_csv_then_tabulate(data):
    text = data.draw(st.one_of(written_texts(), raw_texts()))
    assert_tabulate_csv_matches(text, data.draw(categories_for(text)))


@pytest.mark.parametrize("text", [
    "", "\n", "R,X\n", "R,X", "R,X\r\n", '"R",X\n0,a\n', 'R,X\n0,"a\r\nb"\r\n0,a\r\n',
    "R,X\n0,a\n1\n1\n", "R,X\n0,a\n0,a,b\n", 'R,X\n0,"a\nb"\n2,c\n1\n1\n',
    "R,X\n0,a\n0,a\n1,b\n1\n", 'R,"X"\n0,a\n0,a\n1,b\n1\n', 'R,X\n0,"a\nb"\n0,a\n0,a\n1\n',
])
@pytest.mark.parametrize("categories", [None, {"R": ("0",), "X": ("a",)}, {"R": ("0", "1")}])
def test_tabulate_csv_on_fixed_texts(text, categories):
    assert_tabulate_csv_matches(text, categories)
    assert_from_csv_matches(text, categories)


@st.composite
def tables(draw):
    """A dataset over quirky labels, maybe a count table, maybe tabulated."""
    columns = draw(st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True))
    cats = {c: tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4,
                                   unique=True)))
            for c in columns}
    n = draw(st.integers(0, 10))
    codes = np.array([[draw(st.integers(0, len(cats[c]) - 1)) for c in columns]
                      for _ in range(n)], dtype=np.int64).reshape(n, len(columns))
    counts = None
    if draw(st.booleans()):
        counts = np.array(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)),
                          dtype=np.int64)
    d = Dataset(columns, cats, codes, counts)
    return d.tabulate() if draw(st.booleans()) else d


@settings(max_examples=300, deadline=None)
@given(tables())
def test_to_csv_matches_the_reference(d):
    text = d.to_csv()
    assert text == ref.to_csv(d)
    assert_from_csv_matches(text)


def test_edge_texts_match_the_reference():
    for text in ("", "\n", "R,X\n", "R,X", "R\n\n", "R\n\n\n", "R,X\n0,a\n\n0,a\n",
                 '""\n""\n', "R\n\x0b\n\x0c\n\x1c\n\x85\n \n", "R,X\r\n0,a\r\n",
                 "R\n0\r1\n", 'R\n"0\n1"\n0\n', "R,X\nR,X\n0,a\n"):
        assert_from_csv_matches(text)
        assert_from_csv_matches(text, {"R": ("0",)})


def test_crlf_texts_take_the_line_path_and_match_the_reference(monkeypatch):
    sources = []

    def reader(source):
        sources.append(source)
        return csv.reader(source)

    monkeypatch.setattr(data_module, "csv",
                        SimpleNamespace(reader=reader, writer=csv.writer, Error=csv.Error))
    repeated = "R,X\r\n0,a\r\n1,b\r\n0,a\r\n0,a\n1,b\r\n"
    bare_cr = "R,X\r\n0,a\r\n0\rb,a\r\n0,a\r\n"
    assert ref.from_csv(repeated).n_rows == 5
    assert isinstance(outcome(ref.from_csv, bare_cr)[1], csv.Error)
    for text in (repeated, bare_cr):
        assert_from_csv_matches(text)
        assert_from_csv_matches(text, {"R": ("1", "0"), "X": ("b", "a")})
    assert sources and all(isinstance(s, list) for s in sources)


def test_quoted_fields_on_one_line_take_the_line_path_and_match_the_reference(monkeypatch):
    sources = []

    def reader(source, **kwargs):
        sources.append(source)
        return csv.reader(source, **kwargs)

    monkeypatch.setattr(data_module, "csv",
                        SimpleNamespace(reader=reader, writer=csv.writer, Error=csv.Error))
    quoted_header = '"R",X\r\n0,"a,b"\r\n1,b\r\n0,"a,b"\r\n0,"a,b"\r\n1,b\r\n'
    assert_from_csv_matches(quoted_header)
    assert sources == [['"R",X\r', '0,"a,b"\r', '1,b\r']]
    # a quoted field across a line break, or a line strict parsing rejects,
    # sends the whole text through csv.reader
    for text in ('R,X\n0,"a\nb"\n0,"a\nb"\n', 'R,X\n0,"a"b\n0,"a"b\n', '"\n\n\n"'):
        sources.clear()
        assert_from_csv_matches(text)
        assert isinstance(sources[-1], io.StringIO)
