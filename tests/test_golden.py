"""Byte-stability pins.

The CLI's reports are fixed output: every refactor of the exact layers is
judged against these sha256 digests of stdout.  The two noise laws never
fail on a consistent model, so their witness paths are pinned on models
whose noise joint was tampered with: half the mass of the first noise row
(in sorted order) moves to the last one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from csi_graphlab import laws
from csi_graphlab.cli import EXIT_OK, main
from csi_graphlab.corpus import get_example, list_examples
from csi_graphlab.exact import SolvedModel, draw_samples
from csi_graphlab.scm import serialize_scm
from fraction_reference import from_table

VERIFY_20_SEED_1 = "edf7d8ac3c8a22b69744720bf65e2d0f59b80548001bacd363a79772bf3821b3"
# the suite the benchmark's `verify` workload runs
VERIFY_200_SEED_1 = "c6b99858c5aabd0f120a2c76dea1f7b8e7baccd2a660f8142c554b1f4e401e52"

# per corpus model: ground-truth --full, discover --exact, classify --mode oriented
CLI_DIGESTS = {
    "cf-example": (
        "ba5cec72f95550cb56ca311509071b1db7a84729297d9ae0880be841eddf6d2c",
        "949b9dfb8d965ba573f7c8a535c8817698f0fff0c7a91b257117df0686f50bb3",
        "6957d6f240d3d6ddf467e8343dc705c6785e82228eaa20a851803c1b43ff8cb3",
    ),
    "exo-gate": (
        "a0384cc34caa8affcdac410c4ecd66bea8d11f340f6119e76f49b73c79191587",
        "f332867fb25cfd142dc6330f8d71f4d6c79e6074a643c744971e6115f25d22d7",
        "6f17cb9300881423d4d35f204ea01836249b611b29a12a3986fbff083c085e65",
    ),
    "fig1-change-gated": (
        "2fe8447b6e05017d365d1b6c83bd560a19e7725ece77cd60337c1c7fbcdedb51",
        "d484a764ee1a3494a7d1c54312618ed22632479a71fea89c142ac727b2aa4eeb",
        "0a3a3b58860e427b70c024a865aa23da2a6e4a3a792e942a3cf2178ff3e7c24c",
    ),
    "fig1-change-overlap": (
        "b40a7adfef0fcc1e0bd49fc8f1a6ad16a4746908b95b35204bad79db84e5077d",
        "de6b4630437c5374bea9d6c96501617eab08709dfe0ab6baeaa32d5eca545aef",
        "e154751615e8f33322dcf3935a657b74fb6b101d9ef4ad5904692b5d4fdb704b",
    ),
    "fig1-nochange-gated": (
        "194236f18de6fca9eb35e05d4c96968a5f3734c472a23f960b68369bc066d57c",
        "d484a764ee1a3494a7d1c54312618ed22632479a71fea89c142ac727b2aa4eeb",
        "0a3a3b58860e427b70c024a865aa23da2a6e4a3a792e942a3cf2178ff3e7c24c",
    ),
    "fig1-nochange-overlap": (
        "863346b587c884990494590a58062990029564b28b07d80be41cf4cc7588f76a",
        "06477254e0374b3d64ca34c2ea259a850a0f8b69dcadc9c0da4f232a4464bd89",
        "c9584307067cb54a03a74d907c82e1add6fdeae43511467d40f242699f5588b0",
    ),
    "intro": (
        "9f22761f3ad7050057b7475bbf3200a9f6589c7dd54a9ed50c8817efaa0b61b7",
        "66638e7b52923a4a9fc41658a3e47b7b9f3c74758caacbe3ddee11f2af9ea005",
        "3a818b8eba1e3066b866485cc4716f7fe9ced29f0dc7ece40489609781804111",
    ),
    "intro-mediator": (
        "f0734c69fa17aa972bf65c7a4b649f45755c3a7e6c9c415859c1d8f4119ee6e8",
        "17a03aba7ac570f9005a47a4546317f63dad012dcaa41fabc3f88f071be11b70",
        "9a5329b93a27c8714fbef0e193f8943e77c30d59c287c9b9deecfcb583707671",
    ),
    "non-markov(1/3)": (
        "a27b985b69852d5d7d7409da54b59f6d411097b95fb5abd826d2e6545ade7da2",
        "a697051339e9083fff5079ed747f0de8916839aa59f7932b06ebc87e9e655f76",
        "25f021f04659ce612c6125fea943d3be18f21b7422f298e40ad2d625cd6f1b76",
    ),
    "not-strong-faithful": (
        "33c61f993203fff74da6eeac9084bee8749443eaa482324d4b60ba493c118302",
        "5e4626d656a17ca3b08d04470c97e42dc8f50e2470bcfc5d6d6497325394fcbf",
        "86b2c80683ef43be2d9353dc4d6711e6b827a0f74691159825baf34b4050c118",
    ),
    "p1-limit": (
        "1495d10034e87f685ce1473316944b2da53c023cfe6f9a505f2e57ae2fa4da4d",
        "4d87cfa678c004be89635688d739ef96475d3c85598816bb41484dfedc2422a8",
        "fbb140febd229308a531f6dabb0e0e9b2200bf5987c8f17247a48658e594e841",
    ),
}

# per corpus model, on the tampered noise joint: sha256 of the JSON of the
# witnesses of check_noise_factorization, then of check_local_markov
WITNESS_DIGESTS = {
    "cf-example": (
        "c0c61c44f63160b12f1f7c3026b0cfece44ddbd51e6661b5d127b27f59882f03",
        "c7a05612fcacce10b92e090445a4a028e6ce08d6c4d3639484e849f3c2e2fea7",
    ),
    "exo-gate": (
        "e51c77dee25fccb22d132b73385685d2ed9f3a4ca0cf4d1e8a9ba58dedb9c1ce",
        "77a44afaa0e0c5a5a0ab77b5f82cc1086f6673db48c0a7c44245aedf2fb39c82",
    ),
    "fig1-change-gated": (
        "ee60f6b70f282097c2a15d8f676c4bf33c8e6c8e60f397ba6ce789bcb6129f77",
        "3d06ceb0e2f36feff30f0ccd02ba93db240adf29962d684442dd7ec3261932c1",
    ),
    "fig1-change-overlap": (
        "2bf7de04f7158cd123094ff516c2ee1d3d62c7b0f2276444ca4b577d02749392",
        "41750fdc992ca35feae6ff2ebd1027c8a101be39a399ecf6c4fafa0479b2c0bb",
    ),
    "fig1-nochange-gated": (
        "ee60f6b70f282097c2a15d8f676c4bf33c8e6c8e60f397ba6ce789bcb6129f77",
        "3d06ceb0e2f36feff30f0ccd02ba93db240adf29962d684442dd7ec3261932c1",
    ),
    "fig1-nochange-overlap": (
        "02c763b374c787208deac6fade81471fdd4b01a829cd0e97d69119ba4abd1103",
        "5d6f10c87e5debdcf8c9f9162e797b0ed7cc95ad8cc396f672cd8e7ca4b90f05",
    ),
    "intro": (
        "ad8fab39b9555c6d995a809becf3b72dbc4320e22241f5b58d7c3749cead6ea5",
        "3e6d507119a2c2d85d5223a81aa1f891c32f796c719f76af6b81192c9918300f",
    ),
    "intro-mediator": (
        "42715c3a84f6286ad9e31833dfd96fcc914784cb9f18ff61f405a17e758a32a0",
        "f4b9e96f186c0dc63b8607b6d818cb4bf576b1e1f98a4b4cd7746d0d44f06509",
    ),
    "non-markov(1/3)": (
        "a85cc9141d09bc7ed027e8cff20958b4ba502d1f27205f964c91a16e0162de51",
        "e37cc051f0c71e67260745df3a62ac18265e318bf8a0c96267fdf33993d29938",
    ),
    "not-strong-faithful": (
        "4f64193f2e3d97279f21e115dc9e4589911972c58427ab243451d0e78d75a733",
        "2b64e6efe0fef92a57791cf881e73fc79d5241b01d43101c5d714d8ea6aacfa4",
    ),
    "p1-limit": (
        "3cf093ceac1fa34027f730715c97e0ac290ba938d60c3aba9609a5789bc199c0",
        "5e1b2499813255f934b5c6f5e5d003d68e2b48509c5fbc71d285ab1651ec3135",
    ),
}


# sampled-data reports on 4000 rows drawn with seed 7: (model, argv after the CSV)
_REPLICATES = ("--K", "50", "--N", "1000", "--seed", "3")
SAMPLE_DIGESTS = {
    "transfer-fig1-change-overlap": (
        "fig1-change-overlap",
        ("transfer-test", "--x", "X", "--y", "Y", "--r0", "0", "--context", "C", *_REPLICATES),
        "d7d50d0483e30bb584d75cbf40e8187943945fd9f7e5303885758244a13a847d",
    ),
    "transfer-fig1-nochange-overlap": (
        "fig1-nochange-overlap",
        ("transfer-test", "--x", "X", "--y", "Y", "--r0", "0", "--context", "C", *_REPLICATES),
        "0197679c21b0140f478eb334d3f359eb9a8a6ed48238cc8b794e0b2fc8b22f77",
    ),
    "transfer-intro-mediator-z": (
        "intro-mediator",
        ("transfer-test", "--x", "T", "--y", "Y", "--z", "M", "--r0", "1", *_REPLICATES),
        "71f7802fd702d0ae842d2a90905d457b6a19829003dbb62ab4b000f527f81433",
    ),
    "discover-intro-mediator": (
        "intro-mediator",
        ("discover", "--alpha", "0.05", "--data"),
        "cf9dfecde65d213239877052b5544a4fabe58e8f936c0d12e49439428d28cafd",
    ),
}

# every subcommand with --out on intro-mediator: (argv, {file name: sha256}), the
# file stdout prints first; {model} is the exported model, {data} its 4000 rows
# drawn with seed 7, {exact} and {sampled} the discover --exact and --data reports
_TRANSFER = ("--x", "T", "--y", "Y", "--z", "M", "--r0", "1", *_REPLICATES)
OUT_DIGESTS = {
    "corpus-list": (("corpus", "list"), {
        "corpus-list.txt": "0731136901a6d764a59054e6775581c9ca67b0a4a4ac93f00c2c706a964384f7",
    }),
    "corpus-export": (("corpus", "export", "intro-mediator"), {
        "model.scm": "b579e61e00fd7aaff3b9912007ccf3a3f081919456760838ecb01529523f79f1",
    }),
    "ground-truth": (("ground-truth", "--full", "{model}"), {
        "report.json": "f0734c69fa17aa972bf65c7a4b649f45755c3a7e6c9c415859c1d8f4119ee6e8",
        "acyclified-union.dot": "17f15b999c0b02fd84d9d30e2ea0f16e63fdf4ae9cc66299fd9fe3745dda0637",
        "counterfactual-0.dot": "7abbf6dde07f0d8e012d367b6f4561770d7dc608d3c6519b1f068b03bebe6588",
        "counterfactual-1.dot": "fd7e5dee8fffce390fd63b47e20f6744bae2a7c9dad482f02c81cbc2917ed719",
        "descriptive-0.dot": "2a22e237f2ad1d18a78248e5c2a2921a0e369d843c7d3c4a47859ee580c2bb51",
        "descriptive-1.dot": "791265e4aca32ce62bd9740de645e427b67b43c0f112894f4ecaa90f8bf0cf0b",
        "ident-0.dot": "7aa3a835091841d3efa0ded882b38fb66857744a86f7e635d89435ec44d1c145",
        "ident-1.dot": "14c46db60573f5a6bdd17ead5673259d307b7c146fedf7d9e7b7583923763556",
        "mechanism.dot": "9306745b5f987b2c3374e19ab7992cfe7741e85f2465a347a44b4925547225fd",
        "physical-0.dot": "4585ffff09f08770ae94e5730749c44adc45505d1a518c05bc89a07ad61b3450",
        "physical-1.dot": "b943ee80cb9003c88f2445a4fe85f6c113b314a5152904aef5be7cbb5fa43f9b",
        "union.dot": "c1064cabe5a5bd4710ed76f475ca6755ed6f58f43d710c0fa6072a47372544d5",
    }),
    "discover-exact": (("discover", "--exact", "{model}"), {
        "report.json": "17a03aba7ac570f9005a47a4546317f63dad012dcaa41fabc3f88f071be11b70",
        "detect-0.dot": "92e4864894cd0b47a269059ec1decf3cd221228e73eb0afcbcea593c6d29e2d2",
        "detect-1.dot": "d834c896ff04ad074a24c8595c5bf9d26c5a027b021caa64d8eaa6a1e9df3e7c",
        "pooled-skeleton.dot": "02c6f4e5b5f843115e10af439b095c3468e1c1c090464d4ec656ec0c4ec5f1e9",
        "union-reconstruction.dot": "36eec9bbd81d8e1642d9a5e8c2de27dda2a6e67d6c3fb9b1382050622e214ddc",
    }),
    "discover-data": (("discover", "--alpha", "0.05", "--data", "{data}"), {
        "report.json": "cf9dfecde65d213239877052b5544a4fabe58e8f936c0d12e49439428d28cafd",
        "detect-0.dot": "92e4864894cd0b47a269059ec1decf3cd221228e73eb0afcbcea593c6d29e2d2",
        "detect-1.dot": "d834c896ff04ad074a24c8595c5bf9d26c5a027b021caa64d8eaa6a1e9df3e7c",
        "pooled-skeleton.dot": "02c6f4e5b5f843115e10af439b095c3468e1c1c090464d4ec656ec0c4ec5f1e9",
        "union-reconstruction.dot": "36eec9bbd81d8e1642d9a5e8c2de27dda2a6e67d6c3fb9b1382050622e214ddc",
    }),
    "classify-skeleton": (("classify", "{sampled}"), {
        "report.json": "c6fe5dd9b051573d51b9d92e853c7eecb97dff48664c8b9f50f199360141ff42",
        "changes.csv": "24a9fba757f8e75f2d459e55aa3c5b6eacbca8a0d8481edd643642159b22e872",
    }),
    "classify-oriented": (("classify", "--mode", "oriented", "{exact}"), {
        "report.json": "9a5329b93a27c8714fbef0e193f8943e77c30d59c287c9b9deecfcb583707671",
        "changes.csv": "c3f9e38ee7bee0151dd6129fe6ed2960b9e5d7baa252778099ca33cf0e1a48b9",
    }),
    "sample": (("sample", "{model}", "--n", "200", "--seed", "3"), {
        "samples.csv": "c29e453cbc0320563554965a4f51baa1f6a761ba361303a0a8d73e827f624376",
    }),
    "transfer-test": (("transfer-test", "{data}", *_TRANSFER), {
        "report.json": "71f7802fd702d0ae842d2a90905d457b6a19829003dbb62ab4b000f527f81433",
        "replicates.csv": "f1e6396202ac893ae937250867d52b68dcf7dafb8e823862bef036d729b82c7a",
    }),
    "verify": (("verify", "--count", "3", "--seed", "1"), {
        "report.json": "2eba42a2c5bd0e1f0f02dad9fb71aa99669ac0512133657e077ba5f4f374d15a",
    }),
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    return out


def _tampered(name):
    solved = SolvedModel.of(get_example(name))
    nj = solved.noise_joint
    (first, p_first), *_, (last, p_last) = sorted(nj.table.items())
    table = dict(nj.table)
    table[first] = p_first / 2
    table[last] = p_last + p_first / 2
    return replace(solved, noise_joint=from_table(nj.scope, table))


def test_pins_cover_the_corpus():
    assert sorted(CLI_DIGESTS) == sorted(WITNESS_DIGESTS) == sorted(list_examples())


def test_verify_output_is_pinned(capsys):
    assert _sha(_stdout(capsys, "verify", "--count", "20", "--seed", "1")) == VERIFY_20_SEED_1


def test_benchmark_verify_suite_is_pinned(capsys):
    assert _sha(_stdout(capsys, "verify", "--count", "200", "--seed", "1")) == VERIFY_200_SEED_1


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_corpus_reports_are_pinned(name, capsys, tmp_path):
    model = tmp_path / "model.scm"
    model.write_text(serialize_scm(get_example(name)))
    truth = _stdout(capsys, "ground-truth", str(model), "--full")
    found = _stdout(capsys, "discover", "--exact", str(model))
    report = tmp_path / "discover.json"
    report.write_text(found)
    classified = _stdout(capsys, "classify", str(report), "--mode", "oriented")
    assert (_sha(truth), _sha(found), _sha(classified)) == CLI_DIGESTS[name]


@pytest.mark.parametrize("case", sorted(SAMPLE_DIGESTS))
def test_sampled_data_reports_are_pinned(case, capsys, tmp_path):
    name, argv, want = SAMPLE_DIGESTS[case]
    csv = tmp_path / "data.csv"
    csv.write_text(draw_samples(get_example(name), 4000, 7).to_csv())
    command, *rest = argv
    assert _sha(_stdout(capsys, command, *rest, str(csv))) == want


def _out_inputs(capsys, tmp_path):
    paths = {k: tmp_path / k for k in ("model", "data", "exact", "sampled")}
    paths["model"].write_text(serialize_scm(get_example("intro-mediator")))
    paths["data"].write_text(draw_samples(get_example("intro-mediator"), 4000, 7).to_csv())
    paths["exact"].write_text(_stdout(capsys, "discover", "--exact", str(paths["model"])))
    paths["sampled"].write_text(
        _stdout(capsys, "discover", "--alpha", "0.05", "--data", str(paths["data"]))
    )
    return {k: str(p) for k, p in paths.items()}


@pytest.mark.parametrize("case", sorted(OUT_DIGESTS))
def test_out_files_are_pinned_and_the_first_is_stdout(case, capsys, tmp_path):
    template, want = OUT_DIGESTS[case]
    argv = [a.format(**_out_inputs(capsys, tmp_path)) for a in template]
    printed = _stdout(capsys, *argv)
    out = tmp_path / "out"
    assert _stdout(capsys, *argv, "--out", str(out)) == ""
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == want
    assert (out / next(iter(want))).read_bytes() == printed.encode()


@pytest.mark.parametrize("name", sorted(WITNESS_DIGESTS))
def test_tampered_noise_joint_witnesses_are_pinned(name):
    t = _tampered(name)
    got = []
    for chk in (laws.check_noise_factorization, laws.check_local_markov):
        res = chk(t.scm, t)
        assert not res.passed and not res.skipped
        got.append(_sha(json.dumps(res.witnesses)))
    assert tuple(got) == WITNESS_DIGESTS[name]


def test_tampered_intro_witnesses():
    t = _tampered("intro")
    factorization = laws.check_noise_factorization(t.scm, t).witnesses
    assert factorization[:2] == (
        {"clause": "pooled", "regime": None, "conditioned_on": {"R": "0"},
         "noise_row": ["0", "0", "0"], "probability": "1/16", "factored": "7/64"},
        {"clause": "pooled", "regime": None, "conditioned_on": {"R": "1"},
         "noise_row": ["1", "0", "0"], "probability": "1/8", "factored": "9/64"},
    )
    assert factorization[4] == {
        "clause": "per_context", "regime": "1", "conditioned_on": {"T": "+1", "R": "1"},
        "noise_row": ["1", "1", "0"], "probability": "1/8", "factored": "5/32",
    }
    assert laws.check_local_markov(t.scm, t).witnesses == (
        {"clause": "pooled", "variable": "R", "regime": None, "barrier": [],
         "barrier_value": [], "value": "0", "other_noises": ["0", "0"]},
        {"clause": "pooled", "variable": "T", "regime": None, "barrier": ["R"],
         "barrier_value": ["1"], "value": "+1", "other_noises": ["1", "0"]},
        {"clause": "pooled", "variable": "Y", "regime": None, "barrier": ["T"],
         "barrier_value": ["-1"], "value": "0", "other_noises": ["0", "0"]},
        {"clause": "per_context", "variable": "Y", "regime": "0", "barrier": [],
         "barrier_value": [], "value": "0", "other_noises": ["0", "0"]},
        {"clause": "per_context", "variable": "T", "regime": "1", "barrier": [],
         "barrier_value": [], "value": "+1", "other_noises": ["1", "0"]},
    )
