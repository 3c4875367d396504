"""Tabular categorical datasets: integer codes plus per-column label sets.

Each row carries an integer multiplicity in `counts`: 1 for samples as
drawn or read, more in the count table `Dataset.tabulate` builds.
`_ranks` is the one ranker of value tuples: it numbers rows by the ranks,
in code order, of the tuples they show.  The count table and `to_csv` rank
whole rows with it, and the G-test's table builder ranks many queries'
strata.  It keys runs of adjacent columns with one product, renumbers to
ranks only where the id space would pass the row count, and once at the
end, and ranks by a sort where a `bincount` would outgrow the rows, so its
memory stays O(rows).

CSV I/O does its per-record work once per distinct record: `from_csv`
parses and codes each distinct line (or `csv.reader` record) once and
indexes the codes by row, `tabulate_csv` codes them once and keeps their
counts, so sampled data reaches the G-test as a count table without a
per-row array, and `to_csv` writes each distinct row once and repeats its
line.  Sampled data has few distinct rows, so all three cost little more
than cutting, counting and joining the text.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from collections import Counter
from collections.abc import Callable, Iterable, Mapping, Sequence
from types import SimpleNamespace

import numpy as np

__all__ = ["DataError", "Dataset"]


class DataError(ValueError):
    """Malformed dataset or invalid dataset query."""


def _require_unique(columns: tuple[str, ...]) -> None:
    for i, c in enumerate(columns):
        if c in columns[:i]:
            raise DataError("duplicate column name %r" % (c,))


def _categories_of(categories: Mapping[str, Sequence[str]], column: str) -> Sequence[str]:
    try:
        return categories[column]
    except KeyError:
        raise DataError("categories name no labels for column %r" % (column,)) from None


def _ranks(parts: Iterable[tuple[np.ndarray, Sequence[int]]], rows: int) -> tuple[np.ndarray, int]:
    """The rank of each row's value tuple among the tuples the `rows` rows
    show, in code order, and the number of ranks (none over no rows, one
    over no columns).

    `parts` gives the tuple's positions most significant first, in groups of
    adjacent columns: pairs of a (rows, k) code matrix and its k label counts,
    read one at a time.  Each group is keyed with one matrix product, split
    only before a position that would take the id space past max(rows, 1):
    the ids are renumbered to their ranks there, and once at the end.
    """
    ids = np.zeros(rows, dtype=np.int64)
    n, bound = min(1, rows), max(rows, 1)
    for codes, sizes in parts:
        start = 0  # the group's first column not yet keyed into ids
        for j, size in enumerate(sizes):
            if n * size > bound:
                ids, n = _ranked(_keyed(ids, codes[:, start:j], sizes[start:j]), n)
                start = j
            n *= size
        ids = _keyed(ids, codes[:, start:], sizes[start:])
    return _ranked(ids, n)


def _keyed(ids: np.ndarray, codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """`ids` extended by the mixed-radix code of the columns of `codes`,
    whose label counts are `sizes`."""
    if not sizes:
        return ids
    if len(sizes) == 1:  # an int64 product's fixed cost is not repaid by one column
        return ids * sizes[0] + codes[:, 0]
    radix = np.cumprod([1, *sizes[:0:-1]], dtype=np.int64)[::-1]
    return ids * math.prod(sizes) + codes @ radix


def _ranked(ids: np.ndarray, n: int) -> tuple[np.ndarray, int]:
    """Each of `ids` (codes in range(n)) renumbered to its rank among them,
    and the number of ranks: by a `bincount` over range(n), or by a sort once
    n passes 16 codes per id, so memory stays O(len(ids))."""
    if n > 16 * len(ids):
        present, ranks = np.unique(ids, return_inverse=True)
        return ranks, len(present)
    present = np.bincount(ids, minlength=n) > 0
    return (np.cumsum(present) - 1)[ids], int(np.count_nonzero(present))


def _tally(ids: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Sum of `counts` per id in range(n), in int64 (a weighted `bincount` rounds past 2^53)."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, ids, counts)
    return out


def _counted(items: list) -> Counter:
    """How often each item after the header occurs, in order of first appearance."""
    if not items:
        raise DataError("empty CSV: missing header row")
    return Counter(itertools.islice(items, 1, None))


def _one_record_per_line(lines: list[str]) -> list[tuple[str, ...]] | None:
    """Each line parsed strictly as one record; None when that raises or
    returns fewer records than lines."""
    try:
        records = list(map(tuple, csv.reader(lines, strict=True)))
    except csv.Error:
        return None
    return records if len(records) == len(lines) else None


def _read_csv(text: str) -> tuple[list, Counter, list[tuple[str, ...]]]:
    """`(items, tally, records)` of a CSV text: the header's and each row's
    item (its line, or its `csv.reader` record where the whole text is cut
    by `csv.reader`), how often each distinct row item occurs, in order of
    first appearance, and the record of the header and of each distinct item.

    Each record is one line, whether it ends in `\\n` or `\\r\\n`, and
    only the distinct lines go through `csv.reader`.  When the text holds a
    `"`, they go through a strict one first; if that raises or joins lines,
    as it does wherever a quoted field spans a line break, `csv.reader` cuts
    the whole text into records instead.
    """
    try:
        # not splitlines(): csv.reader keeps \v, \f, \x1c and the like in a field
        items = text.split("\n")
        if items[-1] == "":
            items.pop()
        tally = _counted(items)
        distinct = [items[0], *tally]
        if '"' not in text:
            records = list(map(tuple, csv.reader(distinct)))
        elif (records := _one_record_per_line(distinct)) is None:
            items = list(map(tuple, csv.reader(io.StringIO(text))))
            tally = _counted(items)
            records = [items[0], *tally]
    except csv.Error as e:
        raise DataError("malformed CSV: %s" % (e,)) from None
    return items, tally, records


def _first_row(items: list, distinct: Iterable) -> Callable[[int], int]:
    """The row (counted after the header) where distinct item k first occurs."""
    return lambda k: items.index(next(itertools.islice(distinct, k, None)), 1) - 1


def _coded(
    columns: Sequence[str],
    records: list[tuple[str, ...]],
    first_row: Callable[[int], int],
    categories: Mapping[str, Sequence[str]] | None,
) -> tuple[tuple[str, ...], Mapping[str, Sequence[str]], np.ndarray]:
    """The columns, the categories and one code row per distinct record.

    Records are numbered in order of first appearance, so the first bad
    record first appears in the first bad row; errors name that row,
    `first_row(k)` of record k, found only when they are raised.
    """
    columns = tuple(columns)
    _require_unique(columns)
    for k, r in enumerate(records):
        if len(r) != len(columns):
            raise DataError("row %d has %d fields, expected %d"
                            % (first_row(k), len(r), len(columns)))
    if categories is None:
        categories = {
            c: tuple(sorted({r[j] for r in records}))
            for j, c in enumerate(columns)
        }
        # an all-empty dataset still needs nonempty category sets
        categories = {c: (cats if cats else ("",)) for c, cats in categories.items()}
    index = {
        c: {lbl: i for i, lbl in enumerate(_categories_of(categories, c))}
        for c in columns
    }
    codes = np.empty((len(records), len(columns)), dtype=np.int64)
    try:
        for j, (c, values) in enumerate(zip(columns, zip(*records))):
            codes[:, j] = np.fromiter(map(index[c].__getitem__, values), np.int64,
                                      len(records))
    except KeyError:
        # name the first unknown label in row-major order
        for k, r in enumerate(records):
            for j, c in enumerate(columns):
                if r[j] not in index[c]:
                    raise DataError(
                        "row %d: label %r not among categories of column %r"
                        % (first_row(k), r[j], c)
                    ) from None
    return columns, categories, codes


class Dataset:
    """Rows of category labels stored as integer codes.

    `categories[col]` fixes the code -> label mapping for a column; codes are
    positions in that tuple.  The category universe may be wider than the
    observed values (e.g. the generating model's domain).

    Row i stands for `counts[i]` >= 1 samples: one each if no counts are
    given, more in the count table `tabulate` returns.  `n_rows` and
    `column` speak of the stored rows.
    """

    def __init__(
        self,
        columns: Sequence[str],
        categories: Mapping[str, Sequence[str]],
        codes: np.ndarray,
        counts: np.ndarray | None = None,
    ):
        self.columns = tuple(columns)
        _require_unique(self.columns)
        self.categories = {c: tuple(_categories_of(categories, c)) for c in self.columns}
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != len(self.columns):
            raise DataError("codes must be (n_rows, n_columns)")
        for j, c in enumerate(self.columns):
            labels = self.categories[c]
            k = len(labels)
            if k == 0:
                raise DataError("column %r has no categories" % (c,))
            if len(set(labels)) != k:
                repeated = next(x for i, x in enumerate(labels) if x in labels[:i])
                raise DataError("column %r repeats category %r" % (c, repeated))
            if codes.shape[0] and (codes[:, j].min() < 0 or codes[:, j].max() >= k):
                raise DataError("column %r has codes outside 0..%d" % (c, k - 1))
        if counts is None:
            counts = np.ones(len(codes), dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (codes.shape[0],):
            raise DataError("counts must hold one entry per row")
        if codes.shape[0] and counts.min() < 1:
            raise DataError("counts must be positive")
        self.codes = codes
        self.counts = counts

    @property
    def n_rows(self) -> int:
        return int(self.codes.shape[0])

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise DataError("unknown column %r" % (name,)) from None
        return self.codes[:, j]

    def labels(self, name: str) -> tuple[str, ...]:
        if name not in self.categories:
            raise DataError("unknown column %r" % (name,))
        return self.categories[name]

    def code_of(self, name: str, label: str) -> int:
        cats = self.labels(name)
        try:
            return cats.index(label)
        except ValueError:
            raise DataError("column %r has no category %r" % (name, label)) from None

    @classmethod
    def from_rows(
        cls,
        columns: Sequence[str],
        rows: Iterable[Sequence[str]],
        categories: Mapping[str, Sequence[str]] | None = None,
    ) -> "Dataset":
        number: dict = {}
        ids = [number.setdefault(tuple(r), len(number)) for r in rows]
        columns, categories, codes = _coded(columns, list(number), ids.index, categories)
        return cls(columns, categories, codes[np.array(ids, dtype=np.int64)])

    @classmethod
    def from_csv(
        cls,
        text: str,
        categories: Mapping[str, Sequence[str]] | None = None,
    ) -> "Dataset":
        """Parse CSV with a header row of column names; labels taken verbatim.

        Each distinct line (or `csv.reader` record, see `_read_csv`) is
        parsed and coded once, and its codes indexed by row.  The CLI reads
        through `tabulate_csv`; this stays as the public per-row reader and the
        reference `tabulate_csv` is tested against.
        """
        items, tally, records = _read_csv(text)
        number = dict(zip(tally, itertools.count()))
        columns, categories, codes = _coded(records[0], records[1:], _first_row(items, number),
                                            categories)
        ids = np.fromiter(map(number.__getitem__, itertools.islice(items, 1, None)), np.int64,
                          len(items) - 1)
        return cls(columns, categories, codes[ids])

    @classmethod
    def tabulate_csv(
        cls,
        text: str,
        categories: Mapping[str, Sequence[str]] | None = None,
    ) -> "Dataset":
        """`from_csv(text, categories).tabulate()`, errors included, from the
        count of each distinct line (or `csv.reader` record): only those are
        coded, and no per-row array is built.
        """
        items, tally, records = _read_csv(text)
        columns, categories, codes = _coded(records[0], records[1:],
                                            _first_row(items, tally), categories)
        counts = np.fromiter(tally.values(), np.int64, len(tally))
        return cls(columns, categories, codes, counts).tabulate()

    def to_csv(self) -> str:
        """Header and rows through `csv.writer`, each distinct row written once
        and its line repeated `counts[i]` times for stored row i."""
        lines: list[str] = []
        # writerow hands `write` exactly one whole line per row
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
        writer.writerow(self.columns)
        ranks, distinct = self._distinct()
        labels = np.empty(distinct.shape, dtype=object)
        for j, c in enumerate(self.columns):
            labels[:, j] = np.array(self.categories[c], dtype=object)[distinct[:, j]]
        writer.writerows(labels.tolist())
        ranks = np.repeat(ranks, self.counts)
        header, *distinct_lines = lines
        return header + "".join(map(distinct_lines.__getitem__, ranks.tolist()))

    def _distinct(self) -> tuple[np.ndarray, np.ndarray]:
        """Each stored row's rank over every column (`_ranks` of the whole code
        matrix as one group), and the distinct rows in rank (= code) order,
        read from one stored row of each rank."""
        ranks, n = _ranks([(self.codes, [len(self.categories[c]) for c in self.columns])],
                          self.n_rows)
        first = np.empty(n, dtype=np.int64)
        first[ranks] = np.arange(self.n_rows)
        return ranks, self.codes[first]

    def restrict(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.columns, self.categories, self.codes[mask], self.counts[mask])

    def tabulate(self) -> "Dataset":
        """The count table: the distinct rows in code order, with `counts`.

        Rows are numbered by their ranks over every column (`_ranks`), in
        O(`n_rows`) memory however wide the code space is.
        """
        ranks, codes = self._distinct()
        return Dataset(self.columns, self.categories, codes, _tally(ranks, self.counts, len(codes)))
