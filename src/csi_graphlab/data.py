"""Tabular categorical datasets: integer codes plus per-column label sets.

A dataset holds one row per sample, or, once `Dataset.tabulate` has
compressed it, its distinct rows with an integer multiplicity each in
`counts`.  `_stratum_ids` is the one mixed-radix encoder of rows: the count
table, the G-test and the transfer test all number their cells with it.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["DataError", "Dataset"]


class DataError(ValueError):
    """Malformed dataset or invalid dataset query."""


def _require_unique(columns: tuple[str, ...]) -> None:
    for i, c in enumerate(columns):
        if c in columns[:i]:
            raise DataError("duplicate column name %r" % (c,))


def _stratum_ids(
    data: "Dataset", cols: tuple[str, ...], mask: np.ndarray, observed: bool = False
) -> tuple[np.ndarray, int]:
    """Mixed-radix code of the `cols` values of each masked row, and the
    number of codes (all codes 0 and one code if no cols).

    With `observed`, the codes are renumbered after each column to their
    ranks among the codes the masked rows show, which keeps the code order,
    counts only the value tuples that occur and keeps every code below
    rows * labels.
    """
    ids = np.zeros(int(mask.sum()), dtype=np.int64)
    n = 1
    for c in cols:
        size = len(data.labels(c))
        ids = ids * size + data.column(c)[mask]
        n *= size
        if observed:
            present = np.bincount(ids, minlength=n) > 0
            ids = (np.cumsum(present) - 1)[ids]
            n = int(np.count_nonzero(present))
    return ids, n


class Dataset:
    """Rows of category labels stored as integer codes.

    `categories[col]` fixes the code -> label mapping for a column; codes are
    positions in that tuple.  The category universe may be wider than the
    observed values (e.g. the generating model's domain).

    `counts` is None when every row is one sample; otherwise row i stands for
    `counts[i]` >= 1 samples, as in the count table `tabulate` returns.
    `n_rows` and `column` always speak of the stored rows.
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
        self.categories = {c: tuple(categories[c]) for c in self.columns}
        codes = np.asarray(codes, dtype=np.int64)
        if codes.ndim != 2 or codes.shape[1] != len(self.columns):
            raise DataError("codes must be (n_rows, n_columns)")
        for j, c in enumerate(self.columns):
            k = len(self.categories[c])
            if k == 0:
                raise DataError("column %r has no categories" % (c,))
            if codes.shape[0] and (codes[:, j].min() < 0 or codes[:, j].max() >= k):
                raise DataError("column %r has codes outside 0..%d" % (c, k - 1))
        if counts is not None:
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
        rows = [tuple(r) for r in rows]
        columns = tuple(columns)
        _require_unique(columns)
        for i, r in enumerate(rows):
            if len(r) != len(columns):
                raise DataError("row %d has %d fields, expected %d" % (i, len(r), len(columns)))
        if categories is None:
            categories = {
                c: tuple(sorted({r[j] for r in rows}))
                for j, c in enumerate(columns)
            }
            # an all-empty dataset still needs nonempty category sets
            categories = {c: (cats if cats else ("",)) for c, cats in categories.items()}
        index = {
            c: {lbl: i for i, lbl in enumerate(categories[c])}
            for c in columns
        }
        codes = np.empty((len(rows), len(columns)), dtype=np.int64)
        try:
            for j, (c, values) in enumerate(zip(columns, zip(*rows))):
                codes[:, j] = np.fromiter(map(index[c].__getitem__, values), np.int64, len(rows))
        except KeyError:
            # name the first unknown label in row-major order
            for i, r in enumerate(rows):
                for j, c in enumerate(columns):
                    if r[j] not in index[c]:
                        raise DataError(
                            "row %d: label %r not among categories of column %r" % (i, r[j], c)
                        ) from None
        return cls(columns, categories, codes)

    @classmethod
    def from_csv(
        cls,
        text: str,
        categories: Mapping[str, Sequence[str]] | None = None,
    ) -> "Dataset":
        """Parse CSV with a header row of column names; labels taken verbatim."""
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV: missing header row") from None
        return cls.from_rows(header, list(reader), categories)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        cats = [self.categories[c] for c in self.columns]
        rows = self.codes if self.counts is None else np.repeat(self.codes, self.counts, axis=0)
        for row in rows:
            writer.writerow([cats[j][row[j]] for j in range(len(self.columns))])
        return out.getvalue()

    def restrict(self, mask: np.ndarray) -> "Dataset":
        counts = None if self.counts is None else self.counts[mask]
        return Dataset(self.columns, self.categories, self.codes[mask], counts)

    def tabulate(self) -> "Dataset":
        """The count table: the distinct rows in code order, with `counts`.

        Rows are numbered by their observed ranks over every column, which
        stay below `n_rows` however wide the code space is, and counted with
        one `bincount` (weighted by `counts` if already set).
        """
        ranks, n = _stratum_ids(self, self.columns, np.ones(self.n_rows, dtype=bool),
                                observed=True)
        codes = np.empty((n, len(self.columns)), dtype=np.int64)
        codes[ranks] = self.codes
        counts = np.bincount(ranks, weights=self.counts, minlength=n).astype(np.int64)
        return Dataset(self.columns, self.categories, codes, counts)
