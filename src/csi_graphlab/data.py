"""Tabular categorical datasets: integer codes plus per-column label sets.

Each row carries an integer multiplicity in `counts`: 1 for samples as
drawn or read, more in the count table `Dataset.tabulate` builds.
`_stratum_ids` numbers the rows by the value tuples of some columns: the
count table, the transfer test and `to_csv` number their cells with it, and
the G-test's table builder ranks many queries' strata by the same rule.

CSV I/O does its per-record work once per distinct record: `from_csv`
parses and codes each distinct line (or `csv.reader` record) once and
indexes the codes by row, and `to_csv` writes each distinct row once and
repeats its line.  Sampled data has few distinct rows, so both cost little
more than cutting and joining the text.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
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


def _stratum_ids(
    data: "Dataset", cols: tuple[str, ...], mask: np.ndarray, observed: bool = False
) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the `cols` values of each masked row, and the
    number of codes (all codes 0 and one code if no cols).

    With `observed`, the codes are renumbered after each column to their
    ranks among the codes the masked rows show, which keeps the code order,
    counts only the value tuples that occur (none over no rows) and keeps
    every code below rows * labels.
    """
    ids = np.zeros(int(mask.sum()), dtype=np.int64)
    n = min(1, len(ids)) if observed else 1
    for c in cols:
        size = len(data.labels(c))
        ids = ids * size + data.column(c)[mask]
        n *= size
        if observed:
            present = np.bincount(ids, minlength=n) > 0
            ids = (np.cumsum(present) - 1)[ids]
            n = int(np.count_nonzero(present))
    return ids, n


def _tally(ids: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """Sum of `counts` per id in range(n), in int64 (a weighted `bincount` rounds past 2^53)."""
    out = np.zeros(n, dtype=np.int64)
    np.add.at(out, ids, counts)
    return out


def _numbered(records: list) -> tuple[list, list[int]]:
    """The header and the distinct records after it, in order of first
    appearance, and each record's number among those."""
    if not records:
        raise DataError("empty CSV: missing header row")
    number: dict = {}
    ids = [number.setdefault(r, len(number)) for r in records[1:]]
    return [records[0], *number], ids


def _one_record_per_line(lines: list[str]) -> list[tuple[str, ...]] | None:
    """Each line parsed strictly as one record; None when that raises or
    returns fewer records than lines."""
    try:
        records = list(map(tuple, csv.reader(lines, strict=True)))
    except csv.Error:
        return None
    return records if len(records) == len(lines) else None


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
        return cls._from_records(columns, list(number), ids, categories)

    @classmethod
    def _from_records(
        cls,
        columns: Sequence[str],
        records: list[tuple[str, ...]],
        ids: list[int],
        categories: Mapping[str, Sequence[str]] | None,
    ) -> "Dataset":
        """Code the distinct `records` once; row i is record `ids[i]`.  Records
        are numbered in order of first appearance, so the first bad record
        first appears in the first bad row, which errors name.
        """
        columns = tuple(columns)
        _require_unique(columns)
        for k, r in enumerate(records):
            if len(r) != len(columns):
                raise DataError("row %d has %d fields, expected %d"
                                % (ids.index(k), len(r), len(columns)))
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
                            % (ids.index(k), r[j], c)
                        ) from None
        return cls(columns, categories, codes[np.array(ids, dtype=np.int64)])

    @classmethod
    def from_csv(
        cls,
        text: str,
        categories: Mapping[str, Sequence[str]] | None = None,
    ) -> "Dataset":
        """Parse CSV with a header row of column names; labels taken verbatim.

        Each record is one line, whether it ends in `\\n` or `\\r\\n`, and
        only the distinct lines go through `csv.reader`.  When the text holds
        a `"`, they go through a strict one first; if that raises or joins
        lines, as it does wherever a quoted field spans a line break,
        `csv.reader` cuts the whole text into records instead.
        """
        try:
            # not splitlines(): csv.reader keeps \v, \f, \x1c and the like in a field
            lines = text.split("\n")
            if lines[-1] == "":
                lines.pop()
            distinct, ids = _numbered(lines)
            if '"' not in text:
                distinct = list(map(tuple, csv.reader(distinct)))
            elif (distinct := _one_record_per_line(distinct)) is None:
                distinct, ids = _numbered(list(map(tuple, csv.reader(io.StringIO(text)))))
        except csv.Error as e:
            raise DataError("malformed CSV: %s" % (e,)) from None
        return cls._from_records(distinct[0], distinct[1:], ids, categories)

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
        """Each stored row's observed rank over every column, and the distinct
        rows in rank (= code) order."""
        ranks, n = _stratum_ids(self, self.columns, np.ones(self.n_rows, dtype=bool),
                                observed=True)
        codes = np.empty((n, len(self.columns)), dtype=np.int64)
        codes[ranks] = self.codes
        return ranks, codes

    def restrict(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.columns, self.categories, self.codes[mask], self.counts[mask])

    def tabulate(self) -> "Dataset":
        """The count table: the distinct rows in code order, with `counts`.

        Rows are numbered by their observed ranks over every column, which
        stay below `n_rows` however wide the code space is.
        """
        ranks, codes = self._distinct()
        return Dataset(self.columns, self.categories, codes, _tally(ranks, self.counts, len(codes)))
