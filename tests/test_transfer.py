import numpy as np
import pytest

from csi_graphlab import transfer
from csi_graphlab.corpus import get_example
from csi_graphlab.data import Dataset
from csi_graphlab.exact import draw_samples
from csi_graphlab.independence import CiQuery, g_test
from csi_graphlab.laws import RandomModelSpec, random_scm
from csi_graphlab.rng import derive_seed
from csi_graphlab.transfer import (
    TransferConfig,
    TransferError,
    TransferVerdict,
    transfer_evidence,
)
from transfer_reference import assert_replicates_match


def fixture_samples(name, n=4000, seed=7):
    return draw_samples(get_example(name), n, seed=seed)


def run(data, r0="0", context="C", **cfg_kw):
    defaults = dict(K=200, N=2000, alpha=0.05, seed=7)
    defaults.update(cfg_kw)
    cfg = TransferConfig(**defaults)
    return transfer_evidence(data, "X", "Y", (), r0, cfg, context=context)


def test_changed_mechanism_with_overlap_gives_evidence():
    data = fixture_samples("fig1-change-overlap")
    n0 = int((data.column("C") == data.code_of("C", "0")).sum())
    verdict = run(data, N=n0)
    assert verdict.observed_independent_in_r0
    assert verdict.estimated_power_under_null >= 0.9
    assert verdict.evidence_physical
    assert verdict.details["unseen_cell_rows"] == 0


def test_unchanged_gated_mechanism_gives_no_evidence():
    data = fixture_samples("fig1-nochange-gated")
    n0 = int((data.column("C") == data.code_of("C", "0")).sum())
    verdict = run(data, N=n0)
    assert verdict.estimated_power_under_null < 0.5
    assert not verdict.evidence_physical


def test_single_x_value_in_r0_stratum_is_powerless():
    rows = []
    rng = np.random.default_rng(3)
    for _ in range(800):
        rows.append(("0", "a", str(rng.integers(2))))
    for _ in range(800):
        x = int(rng.integers(2))
        noisy = x if rng.random() < 0.9 else 1 - x
        rows.append(("1", "ab"[x], str(noisy)))
    data = Dataset.from_rows(["R", "X", "Y"], rows)
    verdict = run(data, context="R", K=100, N=800)
    assert verdict.estimated_power_under_null <= 0.05 + 0.03
    assert not verdict.evidence_physical


def test_unseen_cell_falls_back_to_uniform_and_counts():
    rows = []
    rng = np.random.default_rng(5)
    for _ in range(400):
        rows.append(("0", "c", str(rng.integers(2))))
        rows.append(("0", "a", str(rng.integers(2))))
    for _ in range(800):
        x = int(rng.integers(2))
        rows.append(("1", "ab"[x], str(x)))
    data = Dataset.from_rows(["R", "X", "Y"], rows)
    verdict = run(data, context="R", K=20, N=400)
    assert verdict.details["unseen_cell_rows"] > 0


def test_replicates_are_seed_deterministic():
    data = fixture_samples("fig1-change-overlap", n=1500)
    a = run(data, K=25, N=500)
    b = run(data, K=25, N=500)
    assert a.details["per_replicate_p_values"] == b.details["per_replicate_p_values"]
    assert a.estimated_power_under_null == b.estimated_power_under_null
    c = run(data, K=25, N=500, seed=8)
    assert c.details["per_replicate_p_values"] != a.details["per_replicate_p_values"]


def test_counts_past_2_to_53_are_tallied_exactly():
    codes = np.array([[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1]])
    categories = {"C": ("0", "1"), "X": ("a",), "Y": ("a", "b")}
    data = Dataset(("C", "X", "Y"), categories, codes, counts=[2**53, 1, 2**53, 1])
    details = run(data, K=5).details
    assert details["r0_stratum_rows"] == details["null_rows"] == 2**53 + 1


def test_power_does_not_drop_with_more_rows():
    data = fixture_samples("fig1-change-overlap", n=1500)
    small = run(data, K=50, N=120)
    large = run(data, K=50, N=1200)
    assert small.estimated_power_under_null <= (
        large.estimated_power_under_null + 0.02
    )


def test_pooled_null_flag():
    data = fixture_samples("fig1-change-overlap", n=1500)
    verdict = run(data, K=10, N=200)
    assert verdict.details["null_source"] == "off_context"
    pooled = transfer_evidence(
        data, "X", "Y", (), "0",
        TransferConfig(K=10, N=200, alpha=0.05, seed=7),
        context="C", pooled_null=True,
    )
    assert pooled.details["null_source"] == "pooled"
    # Pooling mixes the changed r0 rows into the null, diluting its signal.
    assert pooled.details["null_rows"] == data.n_rows


def test_single_context_data_needs_the_pooled_flag():
    rows = [("0", str(i % 2), str((i // 2) % 2)) for i in range(200)]
    data = Dataset.from_rows(["R", "X", "Y"], rows)
    with pytest.raises(TransferError, match="outside"):
        run(data, context="R", K=5, N=50)
    verdict = transfer_evidence(
        data, "X", "Y", (), "0",
        TransferConfig(K=5, N=50, alpha=0.05, seed=1),
        context="R", pooled_null=True,
    )
    assert verdict.details["null_rows"] == 200


def test_input_validation():
    data = fixture_samples("fig1-change-overlap", n=300)
    cfg = TransferConfig(K=2, N=50, alpha=0.05, seed=1)
    with pytest.raises(TransferError, match="unknown column"):
        transfer_evidence(data, "Q", "Y", (), "0", cfg, context="C")
    with pytest.raises(TransferError, match="overlap"):
        transfer_evidence(data, "X", "X", (), "0", cfg, context="C")
    with pytest.raises(TransferError, match="overlap"):
        transfer_evidence(data, "X", "Y", ("X",), "0", cfg, context="C")
    with pytest.raises(TransferError, match="category"):
        transfer_evidence(data, "X", "Y", (), "9", cfg, context="C")
    empty_r0 = Dataset.from_rows(
        ["C", "X", "Y"],
        [("1", "0", "0"), ("1", "1", "1")],
        categories={"C": ("0", "1"), "X": ("0", "1"), "Y": ("0", "1")},
    )
    with pytest.raises(TransferError, match="no rows"):
        transfer_evidence(empty_r0, "X", "Y", (), "0", cfg, context="C")


def test_unrelated_lookup_errors_are_not_reported_as_missing_categories(monkeypatch):
    data = fixture_samples("fig1-change-overlap", n=300)
    cfg = TransferConfig(K=2, N=50, alpha=0.05, seed=1)

    def broken(self, name, label):
        raise RuntimeError("broken lookup")

    monkeypatch.setattr(Dataset, "code_of", broken)
    with pytest.raises(RuntimeError, match="broken lookup"):
        transfer_evidence(data, "X", "Y", (), "0", cfg, context="C")


def test_config_validation():
    with pytest.raises(TransferError, match="K"):
        TransferConfig(K=0, N=10, alpha=0.05, seed=1)
    with pytest.raises(TransferError, match="N"):
        TransferConfig(K=1, N=0, alpha=0.05, seed=1)
    with pytest.raises(TransferError, match="alpha"):
        TransferConfig(K=1, N=10, alpha=1.5, seed=1)
    with pytest.raises(TransferError, match="min_power"):
        TransferConfig(K=1, N=10, alpha=0.05, seed=1, min_power=0.0)


@pytest.mark.parametrize("field, value", [
    ("K", 2.5), ("K", "3"), ("N", 100.7), ("N", float("nan")), ("N", 2000.0),
    ("seed", 1.0), ("seed", None),
])
def test_config_rejects_a_non_integer_by_name(field, value):
    kw = dict(K=2, N=50, alpha=0.05, seed=1)
    kw[field] = value
    with pytest.raises(TransferError, match="^%s must be an integer, got " % field):
        TransferConfig(**kw)


def test_config_takes_numpy_integers_as_ints():
    cfg = TransferConfig(K=np.int64(3), N=np.uint32(50), alpha=0.05, seed=np.uint64(2**64 - 1))
    assert cfg == TransferConfig(K=3, N=50, alpha=0.05, seed=2**64 - 1)
    assert all(type(v) is int for v in (cfg.K, cfg.N, cfg.seed))
    data = fixture_samples("fig1-change-overlap", n=300)
    assert transfer_evidence(data, "X", "Y", (), "0", cfg, context="C") == \
        transfer_evidence(data, "X", "Y", (), "0", TransferConfig(3, 50, 0.05, 2**64 - 1),
                          context="C")


def test_n_beyond_numpy_draws_is_rejected():
    # numpy's multinomial takes N as a C long: 2^63 would raise OverflowError in the draws
    with pytest.raises(TransferError, match="N must be .* got 9223372036854775808"):
        TransferConfig(K=1, N=2**63, alpha=0.05, seed=1)
    assert TransferConfig(K=1, N=2**63 - 1, alpha=0.05, seed=1).N == 2**63 - 1


def test_verdict_consistency_is_enforced():
    with pytest.raises(TransferError, match="inconsistent"):
        TransferVerdict(
            estimated_power_under_null=0.2,
            observed_independent_in_r0=True,
            evidence_physical=True,
            details={"min_power": 0.8},
        )


def test_conditioning_set_is_respected():
    # Z carries the whole X-Y association, so conditioning on it leaves the
    # null simulation without signal and power stays near the test level.
    rows = []
    rng = np.random.default_rng(11)
    for i in range(2400):
        ctx = "0" if i % 2 else "1"
        zv = int(rng.integers(2))
        x = zv if rng.random() < 0.95 else 1 - zv
        yv = zv if rng.random() < 0.95 else 1 - zv
        rows.append((ctx, str(x), str(yv), str(zv)))
    data = Dataset.from_rows(["R", "X", "Y", "Z"], rows)
    cfg = TransferConfig(K=60, N=1200, alpha=0.05, seed=2)
    with_z = transfer_evidence(data, "X", "Y", ("Z",), "0", cfg, context="R")
    without_z = transfer_evidence(data, "X", "Y", (), "0", cfg, context="R")
    assert with_z.estimated_power_under_null <= 0.15
    assert without_z.estimated_power_under_null >= 0.9


def sixty_four_strata():
    """64 strata of 3x3 tables; A = 3 occurs only in the r0 stratum, so some
    cells fall back to the uniform law in every chunk."""
    rng = np.random.default_rng(5)
    n = 4000
    r = rng.integers(0, 2, size=n)
    z = rng.integers(0, 4, size=(n, 3))
    z[:, 0] = np.where(r == 1, z[:, 0] % 3, z[:, 0])
    x = rng.integers(0, 3, size=n)
    y = np.where(rng.random(n) < 0.8, (x + z[:, 1]) % 3, rng.integers(0, 3, size=n))
    y = np.where(r == 0, rng.integers(0, 3, size=n), y)
    return Dataset.from_rows(
        ["R", "X", "Y", "A", "B", "D"], np.column_stack([r, x, y, z]).astype(str).tolist()
    )


def test_replicate_chunks_stay_under_the_cell_budget(monkeypatch):
    data = sixty_four_strata()
    cfg = TransferConfig(K=40, N=8000, alpha=0.05, seed=3)
    # each kernel call's (replicates, strata, largest x code, largest y code)
    shapes = []
    kernel = transfer.g_test_stats

    def spy(cells, tests, *args, **kwargs):
        shapes.append((int(tests.max()) + 1, len(tests), *cells[:, 1:3].max(axis=0).tolist()))
        return kernel(cells, tests, *args, **kwargs)

    monkeypatch.setattr(transfer, "g_test_stats", spy)
    runs = {}
    for budget in (1 << 30, 3000, 0):
        monkeypatch.setattr(transfer, "_CELL_BUDGET", budget)
        shapes.clear()
        runs[budget] = transfer_evidence(data, "X", "Y", ("A", "B", "D"), "0", cfg, context="R")
        assert sum(s[0] for s in shapes) == cfg.K
        assert all(s[1:] == (64 * s[0], 2, 2) for s in shapes)
        assert all(s[0] == 1 or s[0] * 64 * 9 <= budget for s in shapes)
        assert len(shapes) == {1 << 30: 1, 3000: 8, 0: 40}[budget]
    assert runs[1 << 30].details["unseen_cell_rows"] > 0
    assert runs[1 << 30].estimated_power_under_null >= 0.9
    assert runs[1 << 30] == runs[3000] == runs[0]


def test_one_replicate_chunks_share_one_bit_generator(monkeypatch):
    data = sixty_four_strata()
    cfg = TransferConfig(K=40, N=8000, alpha=0.05, seed=3)
    want = transfer_evidence(data, "X", "Y", ("A", "B", "D"), "0", cfg, context="R")
    built = []
    real = np.random.PCG64

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(np.random, "PCG64", counted)
    monkeypatch.setattr(transfer, "_CELL_BUDGET", 0)  # one replicate per chunk
    assert transfer_evidence(data, "X", "Y", ("A", "B", "D"), "0", cfg, context="R") == want
    assert len(built) == 1


def wide_data(z_labels):
    """Two z columns with `z_labels` labels each, 10-label x and y."""
    rows = [
        (str(i % 2), str(i % 10), str(i // 10 % 10), str(i % z_labels), str(7 * i % z_labels))
        for i in range(2 * z_labels)
    ]
    return Dataset.from_rows(["R", "X", "Y", "Z0", "Z1"], rows)


def test_code_space_over_the_table_budget_is_rejected_before_allocating(monkeypatch):
    data = wide_data(103)  # 103 * 103 * 10 * 10 = 1,060,900 cells
    cfg = TransferConfig(K=2, N=100, alpha=0.05, seed=1)
    real = transfer._tally

    def no_allocation(*args, **kwargs):
        raise AssertionError("arrays sized before the budget check")

    # _tally builds the first array sized by the code space
    monkeypatch.setattr(transfer, "_tally", no_allocation)
    with pytest.raises(TransferError, match=r"Z0, Z1, X, Y has 1060900 cells.*_TABLE_BUDGET"):
        transfer_evidence(data, "X", "Y", ("Z0", "Z1"), "0", cfg, context="R")
    monkeypatch.setattr(transfer, "_tally", real)
    under = wide_data(102)  # 1,040,400 cells
    verdict = transfer_evidence(under, "X", "Y", ("Z0", "Z1"), "0", cfg, context="R")
    assert len(verdict.details["per_replicate_p_values"]) == 2


def test_a_repeated_z_column_is_named_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("tables built before z was checked")

    monkeypatch.setattr(transfer, "_tally", no_table)
    cfg = TransferConfig(K=2, N=100, alpha=0.05, seed=1)
    with pytest.raises(TransferError, match="z repeats column 'Z0'"):
        transfer_evidence(wide_data(3), "X", "Y", ("Z0", "Z1", "Z0"), "0", cfg, context="R")


def permuted(data, seed):
    order = np.random.default_rng(seed).permutation(data.n_rows)
    return Dataset(data.columns, data.categories, data.codes[order])


@pytest.mark.parametrize("pooled_null", [False, True])
def test_count_table_and_row_order_give_the_verdict_of_the_rows(pooled_null):
    m = random_scm(RandomModelSpec(n_vars=5, max_domain=3, seed=2))
    data = draw_samples(m.scm, 3000, 5, m.solved.table)
    table = data.tabulate()
    assert table.n_rows < data.n_rows
    cfg = TransferConfig(K=30, N=500, alpha=0.05, seed=7)
    for x, y, z, r0 in (("V1", "V2", (), "0"), ("V2", "V3", ("V1",), "1"),
                        ("V4", "V3", ("V2", "V1"), "0")):
        verdicts = [transfer_evidence(d, x, y, z, r0, cfg, context="R", pooled_null=pooled_null)
                    for d in (data, table, permuted(data, 1))]
        assert verdicts[1] == verdicts[0] and verdicts[2] == verdicts[0]
        in_r0 = int((data.column("R") == data.code_of("R", r0)).sum())
        assert verdicts[1].details["r0_stratum_rows"] == in_r0
        assert verdicts[1].details["null_rows"] == data.n_rows - (0 if pooled_null else in_r0)


def fresh_generators(seed, ks):
    """Replicate k's generator built the plain way, one SeedSequence per replicate."""
    for k in ks:
        yield np.random.default_rng(derive_seed(seed, k))


def test_replicate_generators_give_the_verdicts_of_fresh_generators(monkeypatch):
    def both(data, x, y, z, r0, cfg, **kw):
        fast = transfer_evidence(data, x, y, z, r0, cfg, **kw)
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "replicate_generators", fresh_generators)
            assert transfer_evidence(data, x, y, z, r0, cfg, **kw) == fast
        return fast

    data = sixty_four_strata()
    cfg = TransferConfig(K=40, N=8000, alpha=0.05, seed=3)
    for budget in (1 << 30, 3000, 0):
        monkeypatch.setattr(transfer, "_CELL_BUDGET", budget)
        verdict = both(data, "X", "Y", ("A", "B", "D"), "0", cfg, context="R")
        assert verdict.details["unseen_cell_rows"] > 0
    monkeypatch.undo()
    m = random_scm(RandomModelSpec(n_vars=5, max_domain=3, seed=2))
    table = draw_samples(m.scm, 3000, 5, m.solved.table).tabulate()
    cfg = TransferConfig(K=30, N=500, alpha=0.05, seed=2**64 - 1)
    for pooled_null in (False, True):
        both(table, "V2", "V3", ("V1",), "1", cfg, context="R", pooled_null=pooled_null)
    # two cells at N = 2000: the same (n, p) pairs recur across replicates
    data = fixture_samples("fig1-change-overlap")
    cfg = TransferConfig(K=200, N=2000, alpha=0.05, seed=7)
    assert both(data, "X", "Y", (), "0", cfg, context="C").evidence_physical


# --- the replicate loop against the per-cell reference ---


@pytest.mark.parametrize("name, draw_seed, seed", [
    ("fig1-change-overlap", 7, 7),
    ("fig1-nochange-overlap", derive_seed(31, 0), derive_seed(32, 0)),
    ("fig1-nochange-overlap", derive_seed(31, 1), derive_seed(32, 1)),
])
def test_criterion_07_replicates_equal_the_per_cell_reference(name, draw_seed, seed):
    data = fixture_samples(name, n=4000, seed=draw_seed)
    cfg = TransferConfig(K=200, N=2000, alpha=0.05, seed=seed)
    assert_replicates_match(data, "X", "Y", (), "0", cfg, context="C")


@pytest.mark.parametrize("pooled_null", [False, True])
def test_chunked_replicates_equal_the_per_cell_reference(monkeypatch, pooled_null):
    data = sixty_four_strata()
    cfg = TransferConfig(K=40, N=8000, alpha=0.05, seed=3)
    for budget in (1 << 30, 3000, 0):
        monkeypatch.setattr(transfer, "_CELL_BUDGET", budget)
        verdict = assert_replicates_match(data, "X", "Y", ("A", "B", "D"), "0", cfg,
                                          pooled_null=pooled_null)
        assert verdict.details["unseen_cell_rows"] > 0 or pooled_null


def random_layout(rng, n_y):
    """Rows over R, X, Z and Y whose declared labels leave some (z, x) cells
    without rows (probability zero in r0) and some seen in r0 only (fallback)."""
    n_x, n_z = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    labels = {"R": 2, "X": n_x + 1, "Z": n_z + 1, "Y": n_y}
    codes = np.column_stack([rng.integers(0, 2, 600), rng.integers(0, n_x, 600),
                             rng.integers(0, n_z, 600), rng.integers(0, n_y, 600)])
    # x = n_x occurs in r0 only: its cells fall back to the uniform law unless pooled
    codes[:40, :2] = (0, n_x)
    return Dataset(tuple(labels), {c: tuple(map(str, range(k))) for c, k in labels.items()},
                   codes[rng.permutation(600)])


@pytest.mark.parametrize("n_y", [2, 3, 4, 5])
@pytest.mark.parametrize("pooled_null", [False, True])
def test_sparse_layouts_equal_the_per_cell_reference(n_y, pooled_null):
    rng = np.random.default_rng(n_y)
    for k in range(4):
        data = random_layout(rng, n_y)
        cfg = TransferConfig(K=30, N=int(rng.integers(1, 400)), alpha=0.05, seed=k)
        for z in ((), ("Z",)):
            verdict = assert_replicates_match(data, "X", "Y", z, "0", cfg,
                                              pooled_null=pooled_null)
            assert (verdict.details["unseen_cell_rows"] > 0) != pooled_null


def test_the_observed_verdict_is_the_g_test_of_the_r0_regime():
    """Read off the r0 rows' (z, x, y) table, the observed verdict is `g_test`'s
    on the regime query, raw rows and count tables alike."""
    rng = np.random.default_rng(7)
    for k in range(40):
        m = random_scm(RandomModelSpec(n_vars=5, max_domain=3, seed=k))
        data = draw_samples(m.scm, int(rng.integers(50, 3000)), k, m.solved.table)
        data = data.tabulate() if k % 2 else data
        ctx = m.scm.context_variable
        x, y, *rest = rng.permutation([c for c in data.columns if c != ctx]).tolist()
        z = tuple(rest[:rng.integers(0, len(rest) + 1)])
        shown = np.bincount(data.column(ctx), minlength=len(data.labels(ctx)))
        r0 = data.labels(ctx)[int(rng.choice(np.flatnonzero(shown)))]
        cfg = TransferConfig(K=5, N=100, alpha=0.05, seed=k)
        got = transfer_evidence(data, x, y, z, r0, cfg, context=ctx, pooled_null=True)
        want = g_test(data, CiQuery(x, y, z, r0), 0.05, context=ctx)
        assert (got.details["observed_p_value"].hex(), got.details["observed_warning"],
                got.observed_independent_in_r0) == (want.p_value.hex(), want.warning,
                                                     want.independent), k
