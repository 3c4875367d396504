"""Per-cell reference for the transfer test's replicate tables.

`replicate_evidence` is the replicate loop of `transfer_evidence` as it
stood before the loop read each first-stage draw as Python ints and handed
the kernel sorted nonzero cells: the (z, x) layout, the null law and the
fallback cells are built as there, each replicate's nonempty cells are
found with `np.flatnonzero` and indexed as numpy scalars, and each chunk's
dense stack goes to the dense reference kernel
(`independence_reference.dense_g_test_stats`).  It reads
`transfer._CELL_BUDGET` when called, so a test that patches the budget
patches both.  Tests and CI require `transfer_evidence` to give its
p-values bit for bit, its unseen-cell rows and its power.
"""

from __future__ import annotations

import math

import numpy as np

from csi_graphlab import transfer
from csi_graphlab.data import Dataset, _tally
from csi_graphlab.rng import replicate_generators
from csi_graphlab.transfer import TransferConfig, TransferVerdict, transfer_evidence
from independence_reference import dense_g_test_stats


def replicate_evidence(
    data: Dataset,
    x: str,
    y: str,
    z: tuple[str, ...],
    r0: str,
    cfg: TransferConfig,
    context: str = "R",
    pooled_null: bool = False,
) -> tuple[list[float], int, float]:
    """(per-replicate p-values, unseen-cell rows, power) of valid input."""
    z = tuple(z)
    in_r0 = data.column(context) == data.code_of(context, r0)
    null_rows = np.ones(data.n_rows, dtype=bool) if pooled_null else ~in_r0
    n_x = len(data.labels(x))
    n_y = len(data.labels(y))
    table_cells = math.prod(len(data.labels(c)) for c in (*z, x, y))
    ids = np.zeros(data.n_rows, dtype=np.int64)
    for c in (*z, x):
        ids = ids * len(data.labels(c)) + data.column(c)
    n_cells = table_cells // n_y
    n_strata = n_cells // n_x

    cell_counts = _tally(ids[in_r0], data.counts[in_r0], n_cells)
    p_cells = cell_counts / cell_counts.sum()
    y_codes = ids[null_rows] * n_y + data.column(y)[null_rows]
    y_counts = _tally(y_codes, data.counts[null_rows], n_cells * n_y).reshape(n_cells, n_y)
    totals = y_counts.sum(axis=1)
    law = np.full((n_cells, n_y), 1.0 / n_y)
    seen = totals > 0
    law[seen] = y_counts[seen] / totals[seen, None]
    fallback = (cell_counts > 0) & ~seen

    chunk = max(1, transfer._CELL_BUDGET // (n_cells * n_y))
    p_values = []
    unseen_rows = 0
    generators = replicate_generators(cfg.seed, range(cfg.K))
    for first in range(0, cfg.K, chunk):
        tables = np.zeros((min(chunk, cfg.K - first), n_cells, n_y), dtype=np.int64)
        for table, rng in zip(tables, generators):
            drawn = rng.multinomial(cfg.N, p_cells)
            for cell in np.flatnonzero(drawn):
                table[cell] = rng.multinomial(drawn[cell], law[cell])
        unseen_rows += int(tables[:, fallback].sum())
        p_values += dense_g_test_stats(tables.reshape(len(tables), n_strata, n_x, n_y))[0].tolist()
    rejecting = sum(1 for p in p_values if p < cfg.alpha)
    return p_values, unseen_rows, rejecting / cfg.K


def assert_replicates_match(
    data: Dataset,
    x: str,
    y: str,
    z: tuple[str, ...],
    r0: str,
    cfg: TransferConfig,
    context: str = "R",
    pooled_null: bool = False,
) -> TransferVerdict:
    """`transfer_evidence`'s verdict, after requiring its p-values (by `.hex()`),
    unseen-cell rows and power to equal `replicate_evidence`'s."""
    verdict = transfer_evidence(data, x, y, z, r0, cfg, context=context, pooled_null=pooled_null)
    p_values, unseen_rows, power = replicate_evidence(data, x, y, z, r0, cfg, context, pooled_null)
    where = (x, y, z, r0, cfg, pooled_null)
    got = [p.hex() for p in verdict.details["per_replicate_p_values"]]
    assert got == [p.hex() for p in p_values], where
    assert verdict.details["unseen_cell_rows"] == unseen_rows, where
    assert verdict.estimated_power_under_null == power, where
    return verdict
