"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Every expected value is pinned (seeds, tolerances, runtime budgets); the
random-model streams are deterministic in the seeds below.  Lines print
straight to the terminal even under captured output.
"""

import itertools
import json
import time
from dataclasses import replace

import numpy as np
import pytest

from csi_graphlab import laws
from csi_graphlab.classify import NON_PHYSICAL, PHYSICAL, RULE_R2, UNDETERMINED, classify_changes
from csi_graphlab.cli import main as cli_main
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.data import Dataset
from csi_graphlab.discovery import (
    ExactTester,
    detect_graph,
    skeleton_pooled,
    union_from_contexts,
)
from csi_graphlab.exact import SolvedModel, draw_samples, solve_all
from csi_graphlab.graph_objects import (
    check_R_faithfulness,
    check_strong_R_faithfulness,
    counterfactual_graph,
    descriptive_graph,
    ident_graph,
    physical_graph,
    union_graph,
)
from csi_graphlab.independence import CiQuery, ci_exact, conditional_mutual_information, g_test
from csi_graphlab.rng import derive_seed
from csi_graphlab.transfer import TransferConfig, transfer_evidence

LAW_SUITE_SECONDS = 60.0
TRANSFER_SECONDS = 90.0
VERIFY_SECONDS = 120.0

RANDOM_SPEC = laws.RandomModelSpec(n_vars=5, max_domain=3, max_parents=3, seed=1)

LAW_CHECKS = (
    laws.check_edge_inclusions,
    laws.check_regime_children,
    laws.check_ident_sandwich,
    laws.check_solution_locality,
    laws.check_noise_factorization,
    laws.check_local_markov,
)


@pytest.fixture(scope="module")
def solved_examples():
    out = {}
    for name in list_examples():
        s = get_example(name)
        out[name] = (s, SolvedModel.of(s))
    return out


def run_criterion(capsys, num, slug, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print("criterion %02d %-24s FAIL" % (num, slug), flush=True)
        raise
    with capsys.disabled():
        print("criterion %02d %-24s PASS" % (num, slug), flush=True)


def test_criterion_01_law_suite(capsys, solved_examples):
    def body():
        start = time.monotonic()
        for name, (s, sm) in solved_examples.items():
            for chk in LAW_CHECKS:
                res = chk(s, sm)
                assert res.passed and not res.skipped, (name, res)
        summary = laws.run_suite(200, spec=RANDOM_SPEC, checks=LAW_CHECKS)
        assert summary.ok, summary.failures
        for tally in summary.tallies.values():
            assert tally["failed"] == 0
        assert time.monotonic() - start <= LAW_SUITE_SECONDS

    run_criterion(capsys, 1, "law-suite", body)


def test_criterion_02_markov_property(capsys, solved_examples):
    def body():
        spec = replace(
            RANDOM_SPEC,
            require=laws.Requirements(solvable=True, strongly_regime_acyclic=True),
        )
        summary = laws.run_suite(100, spec=spec, checks=(laws.check_markov,))
        assert summary.tallies["markov"] == {"passed": 100, "failed": 0, "skipped": 0}

        s, sm = solved_examples["non-markov(1/3)"]
        assert ("X", "Y") not in descriptive_graph(sm, "b0").edges
        assert ("X", "Y") in ident_graph(sm, "b0").edges
        assert detect_graph(ExactTester(sm), "b0").adjacent("X", "Y")
        assert laws.check_markov(s, sm).passed

    run_criterion(capsys, 2, "markov-property", body)


def test_criterion_03_union_identification(capsys, solved_examples):
    def body():
        strong = []
        for name, (s, sm) in solved_examples.items():
            if check_R_faithfulness(sm).holds and check_strong_R_faithfulness(sm).holds:
                strong.append(name)
        assert "not-strong-faithful" not in strong and len(strong) == 10

        def reconstruction_gap(name):
            s, sm = solved_examples[name]
            ctx = s.context_variable
            tester = ExactTester(sm)
            pooled = skeleton_pooled(tester)
            detect = {r: detect_graph(tester, r) for r in sm.regimes}
            rec = union_from_contexts(detect, pooled, ctx)
            away = {p for p in rec.pairs if ctx not in p}
            truth = {p for p in union_graph(sm).skeleton().pairs if ctx not in p}
            return away ^ truth

        for name in strong:
            assert reconstruction_gap(name) == set(), name
        assert reconstruction_gap("not-strong-faithful") == {("X", "Y")}

    run_criterion(capsys, 3, "union-identification", body)


def test_criterion_04_worked_example(capsys, solved_examples):
    def body():
        s, sm = solved_examples["intro"]
        assert ("T", "Y") not in descriptive_graph(sm, "0").edges
        assert ("T", "Y") in physical_graph(sm, "0").edges

        s, sm = solved_examples["intro-mediator"]
        tester = ExactTester(sm)
        pooled = skeleton_pooled(tester)
        detect = {r: detect_graph(tester, r) for r in sm.regimes}
        report = classify_changes(
            pooled, detect, mode="skeleton", context=s.context_variable
        )
        verdicts = {tuple(c.edge): c for c in report.changes["0"]}
        assert verdicts[("T", "Y")].classification == NON_PHYSICAL
        assert verdicts[("M", "T")].classification == UNDETERMINED

    run_criterion(capsys, 4, "worked-example", body)


def test_criterion_05_jci_soundness(capsys):
    def body():
        # the parent/ancestor rule presupposes strong regime-acyclicity, and
        # reading detection-skeleton absence as per-context non-adjacency
        # presupposes faithfulness; sample within those hypotheses
        spec = replace(
            RANDOM_SPEC,
            seed=2,
            require=laws.Requirements(
                solvable=True, strongly_regime_acyclic=True, R_faithful=True
            ),
        )
        sizes = list(range(2, spec.n_vars + 1))
        n_nonphys = n_r2 = 0
        for i in range(200):
            mspec = replace(spec, n_vars=sizes[i % len(sizes)], seed=derive_seed(2, i))
            m = laws.random_scm(mspec)
            s, sm = m.scm, m.solved
            tester = ExactTester(sm)
            union = union_graph(sm)
            detect = {r: detect_graph(tester, r) for r in sm.regimes}
            report = classify_changes(
                union, detect, mode="oriented", context=s.context_variable
            )
            for r, items in report.changes.items():
                phys = physical_graph(sm, r)
                for c in items:
                    if c.classification == NON_PHYSICAL:
                        n_nonphys += 1
                        assert c.edge in phys.edges, (mspec.seed, r, c)
                    elif c.classification == PHYSICAL and c.rule == RULE_R2:
                        n_r2 += 1
                        assert c.edge not in phys.edges, (mspec.seed, r, c)
        assert n_nonphys > 0 and n_r2 > 0

    run_criterion(capsys, 5, "jci-soundness", body)


def test_criterion_06_counterfactual_excess(capsys, solved_examples):
    def body():
        s, sm = solved_examples["cf-example"]
        assert ("X", "Y") in counterfactual_graph(sm, "1").edges
        assert ("X", "Y") not in union_graph(sm).edges

    run_criterion(capsys, 6, "counterfactual-excess", body)


def test_criterion_07_transfer_calibration(capsys):
    def body():
        start = time.monotonic()
        null_scm = get_example("fig1-nochange-overlap")
        table = solve_all(null_scm)
        false_evidence = 0
        for t in range(200):
            data = draw_samples(null_scm, 4000, derive_seed(31, t), table)
            cfg = TransferConfig(K=200, N=2000, alpha=0.05, seed=derive_seed(32, t))
            v = transfer_evidence(data, "X", "Y", (), "0", cfg, context="C")
            false_evidence += v.evidence_physical
        assert false_evidence / 200 <= 0.05 + 0.03

        cfg = TransferConfig(K=200, N=2000, alpha=0.05, seed=7)
        data = draw_samples(get_example("fig1-change-overlap"), 4000, 7)
        v = transfer_evidence(data, "X", "Y", (), "0", cfg, context="C")
        assert v.evidence_physical and v.estimated_power_under_null >= 0.9

        data = draw_samples(get_example("fig1-nochange-gated"), 4000, 7)
        v = transfer_evidence(data, "X", "Y", (), "0", cfg, context="C")
        assert not v.evidence_physical
        assert time.monotonic() - start <= TRANSFER_SECONDS

    run_criterion(capsys, 7, "transfer-calibration", body)


def test_criterion_08_g_test_calibration(capsys, solved_examples):
    def body():
        rejections = 0
        for t in range(500):
            rng = np.random.default_rng(derive_seed(99, t))
            rows = [
                (str(a), str(b))
                for a, b in zip(rng.integers(0, 3, 1000), rng.integers(0, 2, 1000))
            ]
            v = g_test(Dataset.from_rows(("X", "Y"), rows), CiQuery("X", "Y"), alpha=0.05)
            rejections += not v.independent
        assert 0.05 - 0.03 <= rejections / 500 <= 0.05 + 0.03

        total = agree = 0
        for idx, name in enumerate(list_examples()):
            s, sm = solved_examples[name]
            ctx = s.context_variable
            data = draw_samples(s, 10_000, derive_seed(42, idx), sm.table)
            for x, y in itertools.combinations(sorted(s.variable_names), 2):
                rest = [v for v in s.variable_names if v not in (x, y)]
                for z in [()] + [(w,) for w in rest]:
                    for regime in (None, *sm.regimes):
                        if regime is not None and ctx in (x, y, *z):
                            continue
                        q = CiQuery(x, y, z, regime)
                        if conditional_mutual_information(sm.joint, q, context=ctx) <= 0.01:
                            continue
                        exact = ci_exact(sm.joint, q, context=ctx)
                        sampled = g_test(data, q, alpha=0.05, context=ctx)
                        total += 1
                        agree += exact.independent == sampled.independent
        assert total >= 50
        assert agree / total >= 0.95

    run_criterion(capsys, 8, "g-test-calibration", body)


def test_criterion_09_single_regime_limit(capsys, solved_examples):
    def body():
        s, sm = solved_examples["p1-limit"]
        assert len(sm.regimes) == 1
        r0 = sm.regimes[0]
        union = union_graph(sm)
        assert descriptive_graph(sm, r0).edges == union.edges
        assert physical_graph(sm, r0).edges == union.edges

    run_criterion(capsys, 9, "single-regime-limit", body)


def test_criterion_10_verify_cli(capsys):
    def body():
        start = time.monotonic()
        rc = cli_main(["verify", "--count", "200", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out)["ok"] is True
        assert time.monotonic() - start <= VERIFY_SECONDS

    run_criterion(capsys, 10, "verify-cli", body)
