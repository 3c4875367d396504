"""Bootstrap evidence test for a mechanism change behind a vanished edge.

When a pooled edge X -> Y is independent inside one context value, two
stories fit: the mechanism of Y changed there, or the context merely
reshaped the support of (X, Z) so the dependence has nothing to show
itself on.  The null keeps the mechanism: estimate P(X, Z | ctx = r0) from
the r0 stratum and P(Y | X, Z) away from it, simulate K datasets of N rows
under that null, and measure how often the G-test would still have
rejected independence.  High simulated rejection power plus an observed
non-rejection in the real r0 stratum is evidence that the mechanism, not
the support, changed.

Replicate k draws its counts from a generator in the state of
`default_rng(derive_seed(seed, k))`, set without `SeedSequence` hashing by
one `replicate_generators` call over all K: first N rows over the (z, x)
cells, then, for each cell that drew any, its y counts from the cell's null
law, into a dense table over every (z, x, y) code, since the draws depend
on that layout.  A code space above `_TABLE_BUDGET` cells is rejected
before any array is built.  Chunks of at most `_CELL_BUDGET` table cells
(or one replicate) hand their nonzero cells to the G-test's array stage,
`g_test_stats`, so memory does not grow with K; the observed verdict reads
the r0 rows' table the same way.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .data import DataError, Dataset, _tally
from .independence import g_test_from_tables, g_test_stats
from .rng import replicate_generators

__all__ = [
    "TransferError",
    "TransferConfig",
    "TransferVerdict",
    "transfer_evidence",
]

# table cells the replicates of one kernel call may hold together
_CELL_BUDGET = 1 << 18
# cells of one replicate's (z, x, y) table; a wider code space is rejected
_TABLE_BUDGET = 1 << 20


class TransferError(ValueError):
    """Invalid input to the transfer evidence test."""


@dataclass(frozen=True)
class TransferConfig:
    """Replication plan for the bootstrap null."""

    K: int
    N: int
    alpha: float
    seed: int
    min_power: float = 0.8

    def __post_init__(self) -> None:
        for name in ("K", "N", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TransferError("%s must be an integer, got %r" % (name, value)) from None
        if self.K < 1:
            raise TransferError("K must be at least 1")
        if not 1 <= self.N < 1 << 63:
            raise TransferError("N must be from 1 to 2^63 - 1, got %d" % self.N)
        if not (0.0 < self.alpha < 1.0):
            raise TransferError("alpha must be in (0, 1)")
        if not (0.0 < self.min_power < 1.0):
            raise TransferError("min_power must be in (0, 1)")


@dataclass(frozen=True)
class TransferVerdict:
    """Outcome of the bootstrap: simulated power and the combined call."""

    estimated_power_under_null: float
    observed_independent_in_r0: bool
    evidence_physical: bool
    details: dict

    def __post_init__(self) -> None:
        want = (
            self.observed_independent_in_r0
            and self.estimated_power_under_null >= self.details["min_power"]
        )
        if self.evidence_physical != want:
            raise TransferError("verdict flags are inconsistent")


def _nonzero_cells(tables: np.ndarray, n_strata: int, n_x: int, n_y: int):
    """The kernel's `(cells, tests)` of dense replicate tables of `n_strata`
    (x, y) tables each: replicate k's stratum s is stratum k * n_strata + s."""
    flat = tables.ravel()
    at = np.flatnonzero(flat)
    cells = np.column_stack([at // (n_x * n_y), at // n_y % n_x, at % n_y, flat[at]])
    return cells, np.arange(len(tables) * n_strata) // n_strata


def transfer_evidence(
    data: Dataset,
    x: str,
    y: str,
    z: tuple[str, ...],
    r0: str,
    cfg: TransferConfig,
    context: str = "R",
    pooled_null: bool = False,
) -> TransferVerdict:
    """Evidence that the mechanism of y changed in the context value r0.

    The null mechanism P(y | x, z) is estimated from rows outside the r0
    stratum by default; `pooled_null` uses all rows instead.  (x, z) cells
    seen in the r0 stratum but absent from the estimation rows fall back to
    a uniform law over y, counted in details["unseen_cell_rows"].  Each
    replicate draws its contingency from an independently derived seed, so
    the replicate order never affects the outcome.  Rows are weighted by
    `counts`, so a count table gets the verdict of its rows, and the
    "r0_stratum_rows" and "null_rows" details count samples.
    """
    z = tuple(z)
    for name in (x, y, context, *z):
        if name not in data.columns:
            raise TransferError("unknown column %r" % (name,))
    if len({x, y, context}) != 3 or x in z or y in z or context in z:
        raise TransferError("x, y, the context, and z must not overlap")
    for i, name in enumerate(z):
        if name in z[:i]:
            raise TransferError("z repeats column %r" % (name,))
    try:
        r0_code = data.code_of(context, r0)
    except DataError:
        raise TransferError("r0 value %r is not a category of %r" % (r0, context)) from None

    in_r0 = data.column(context) == r0_code
    if not in_r0.any():
        raise TransferError("no rows with %s=%s" % (context, r0))
    null_rows = np.ones(data.n_rows, dtype=bool) if pooled_null else ~in_r0
    if not null_rows.any():
        raise TransferError("no rows outside %s=%s to estimate the null from" % (context, r0))

    n_x, n_y = len(data.labels(x)), len(data.labels(y))
    table_cells = math.prod(len(data.labels(c)) for c in (*z, x, y))
    if table_cells > _TABLE_BUDGET:
        raise TransferError(
            "the (z, x, y) code space over %s has %d cells, more than _TABLE_BUDGET = %d "
            "per replicate table" % (", ".join((*z, x, y)), table_cells, _TABLE_BUDGET)
        )
    # every (z, x) code, seen or not: the replicate draws depend on the layout
    ids = np.zeros(data.n_rows, dtype=np.int64)
    for c in (*z, x):
        ids = ids * len(data.labels(c)) + data.column(c)
    n_cells = table_cells // n_y
    n_strata = n_cells // n_x

    y_codes = ids * n_y + data.column(y)
    # the r0 rows' (z, x, y) table: the observed test's, and its row sums the (z, x) law
    observed_table = _tally(y_codes[in_r0], data.counts[in_r0], table_cells)
    cell_counts = observed_table.reshape(n_cells, n_y).sum(axis=1)
    p_cells = cell_counts / cell_counts.sum()
    y_counts = _tally(y_codes[null_rows], data.counts[null_rows], table_cells).reshape(n_cells, n_y)
    totals = y_counts.sum(axis=1)
    law = np.full((n_cells, n_y), 1.0 / n_y)
    seen = totals > 0
    law[seen] = y_counts[seen] / totals[seen, None]
    fallback = (cell_counts > 0) & ~seen

    [observed] = g_test_from_tables(*_nonzero_cells(observed_table[None], n_strata, n_x, n_y),
                                    cfg.alpha)

    chunk = max(1, _CELL_BUDGET // (n_cells * n_y))
    p_values = []
    unseen_rows = 0
    cell_laws = list(law)
    generators = replicate_generators(cfg.seed, range(cfg.K))
    for first in range(0, cfg.K, chunk):
        tables = np.zeros((min(chunk, cfg.K - first), n_cells, n_y), dtype=np.int64)
        for table, rng in zip(tables, generators):
            drawn = rng.multinomial(cfg.N, p_cells)
            counts = drawn.tolist()
            for cell in drawn.nonzero()[0].tolist():
                table[cell] = rng.multinomial(counts[cell], cell_laws[cell])
        unseen_rows += int(tables[:, fallback].sum())
        p_values += g_test_stats(*_nonzero_cells(tables, n_strata, n_x, n_y))[0].tolist()
    rejecting = sum(1 for p in p_values if p < cfg.alpha)
    power = rejecting / cfg.K

    details = {
        "per_replicate_p_values": tuple(p_values),
        "rejecting_replicates": rejecting,
        "unseen_cell_rows": unseen_rows,
        "observed_p_value": observed.p_value,
        "observed_warning": observed.warning,
        "r0_stratum_rows": int(cell_counts.sum()),
        "null_rows": int(totals.sum()),
        "null_source": "pooled" if pooled_null else "off_context",
        "min_power": cfg.min_power,
    }
    return TransferVerdict(
        estimated_power_under_null=power,
        observed_independent_in_r0=observed.independent,
        evidence_physical=observed.independent and power >= cfg.min_power,
        details=details,
    )
