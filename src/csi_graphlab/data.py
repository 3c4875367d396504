"""Tabular categorical datasets: integer codes plus per-column label sets."""

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


class Dataset:
    """Rows of category labels stored as integer codes.

    `categories[col]` fixes the code -> label mapping for a column; codes are
    positions in that tuple.  The category universe may be wider than the
    observed values (e.g. the generating model's domain).
    """

    def __init__(
        self,
        columns: Sequence[str],
        categories: Mapping[str, Sequence[str]],
        codes: np.ndarray,
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
        self.codes = codes

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
        for i, r in enumerate(rows):
            for j, c in enumerate(columns):
                try:
                    codes[i, j] = index[c][r[j]]
                except KeyError:
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
        for row in self.codes:
            writer.writerow([cats[j][row[j]] for j in range(len(self.columns))])
        return out.getvalue()

    def restrict(self, mask: np.ndarray) -> "Dataset":
        return Dataset(self.columns, self.categories, self.codes[mask])
