"""Column-at-a-time references for `data._ranks` and `Dataset._distinct`.

Verbatim copies of the ranking that lazy renumbering replaced: with
`observed`, the codes are renumbered to their ranks after every column, and
`_distinct` scatters the whole code matrix into the distinct rows.  Tests
compare the package with them on ranks, counts and distinct rows, and
`discovery_reference.g_test_table` ranks its strata with `stratum_ids`.
"""

from __future__ import annotations

import numpy as np

from csi_graphlab.data import Dataset


def stratum_ids(
    data: Dataset, cols: tuple[str, ...], mask: np.ndarray, observed: bool = False
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


def distinct(data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Each stored row's observed rank over every column, and the distinct
    rows in rank (= code) order."""
    ranks, n = stratum_ids(data, data.columns, np.ones(data.n_rows, dtype=bool),
                           observed=True)
    codes = np.empty((n, len(data.columns)), dtype=np.int64)
    codes[ranks] = data.codes
    return ranks, codes
