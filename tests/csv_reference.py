"""Row-by-row references for `Dataset.from_csv` and `Dataset.to_csv`.

Verbatim copies of the CSV reader and writer that distinct-record I/O
replaced, with the `from_rows` they called: every row goes through
`csv.reader`, the field-count check and the label lookup, and every stored
row (repeated `counts[i]` times in a count table) through `csv.writer`.
Tests compare the package with them on columns, categories, codes, bytes
and errors.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from csi_graphlab.data import DataError, Dataset, _require_unique


def from_rows(
    columns: Sequence[str],
    rows: Iterable[Sequence[str]],
    categories: Mapping[str, Sequence[str]] | None = None,
) -> Dataset:
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
    return Dataset(columns, categories, codes)


def from_csv(
    text: str,
    categories: Mapping[str, Sequence[str]] | None = None,
) -> Dataset:
    """Parse CSV with a header row of column names; labels taken verbatim."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty CSV: missing header row") from None
    return from_rows(header, list(reader), categories)


def to_csv(self: Dataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(self.columns)
    cats = [self.categories[c] for c in self.columns]
    rows = self.codes if self.counts is None else np.repeat(self.codes, self.counts, axis=0)
    for row in rows:
        writer.writerow([cats[j][row[j]] for j in range(len(self.columns))])
    return out.getvalue()
