"""Golden outputs: refactors must leave the CLI's contracts byte-identical."""

import hashlib
import io
import json

import pytest

from asep2.cli import main
from asep2.duality import sum_rule_table, write_lambda_csv

# `verify all --L 2|3` prints each relation once, the five size-free
# fundamental-matrix relations before the L1 conjugation lines
VERIFY_ALL_L2_SHA256 = "b0405267e679a10fd36c6e0e3a8793c7da87da9d1627b5c4adddd412b847cd2a"
VERIFY_ALL_L3_SHA256 = "534522977164990bc67af4086c8b32e34c2ccae5b93637a0cc25480a6a96ca4e"

# SHA-256 of the stdout of matrix dumps and measure files
DUMP_SHA256 = [
    (["dump-generator"], "4217f16e3b8aa6a2562deca86ecfa6e7183d6fd9e199d5fe90f0294e6780a1cf"),
    (
        ["dump-generator", "--N", "1", "--M", "1", "--ring", "float"],
        "eed61e441773bc3a2df3f9dd75e9e6fe09a9ecd9a8c7777d938d42f818413899",
    ),
    (["dump-symmetry", "--L", "1"], "a358cd1b1f8f609266a42db86018d8c239c8fb5e2081cbfb4532f308ec1729f9"),
    (
        ["measure", "canonical", "--N", "1", "--M", "1"],
        "3d3e59b53227949804813c730d3a7996235f66971a64ea4e48d64c3c11b8b736",
    ),
    (
        ["measure", "partition", "--L", "3"],
        "c2c2e757e63a95425148b18808b7a7b11e46c3a0358f75bd1b673b708f64bb6b",
    ),
    (["dump-symmetry", "--L", "2"], "0bb2f9aec686b764d35af2f61cd28d1ae4e202ea286dd96ac81098affaa0b341"),
    (["dump-symmetry", "--L", "3"], "2229fca341f128cf89aa17b26c4d0e78c3421cabe774c21612708d2b2665e006"),
    (["dump-generator", "--L", "3"], "af9688e8fe161fed453ba07ab5338f4688187155eac77693228ed9a75dbb984b"),
    (
        ["measure", "canonical", "--N", "1", "--M", "1", "--ring", "float"],
        "864a68ec4814da667e743b00b00b907077cbeafbb5b8aa4b2a2c85a2b61bbaaf",
    ),
    (
        ["measure", "canonical", "--L", "3", "--N", "2", "--M", "2", "--ring", "float"],
        "3f85f4e01c7dd9a9d2fa09d0da85a40132ff44b4819182371dfe908432b5abc2",
    ),
    (
        ["measure", "grandcanonical", "--nu", "0.3", "--mu", "-0.7"],
        "466b600c423231115adcc1f63cb23d5d4967782a6b5050d774e7449e35d28794",
    ),
    (
        ["measure", "pure", "--species", "B", "--mu", "0.5"],
        "6cd0dab2f1faeeb252d029b6fb06f0fd9493f47a16bcd5fc379ca6864875c3ae",
    ),
    (
        ["measure", "pure", "--L", "3", "--nu", "1"],
        "04969dd41371a63128f3f79511309d5079d278e227f2b23586b546906dfbaf5b",
    ),
]

# SHA-256 of the sum-rule CSV written by `verify duality --L 2 --lambda-out`
LAMBDA_L2_SHA256 = "3e85ec9d0fcc25167cc072de11a81206cc78f95e1944e309fcf957da95afb13e"

# SHA-256 of the same CSV for `sum_rule_table(3)` (the CLI writes it at
# the sizes of the duality row of cli.VERIFY_CHECKS, L <= 2)
LAMBDA_L3_SHA256 = "7053cf2a9da288bf84c6ae0283f13561bd98d67e6b5a85e457d0a7664dcdee18"

# (z, t, n, mean, stderr) of `simulate --L 2 --trajectories 2000 --seed 7
# --t 0 --t 1` on the SFC64 block streams; `prediction`, `exact` and
# `sigma` are left out because they depend on the BLAS build
SIMULATE_L2_SEED7 = [
    ("A000", 0.0, 2000, 0.5, 0.0),
    ("0B00", 0.0, 2000, 0.0, 0.0),
    ("0AB0", 0.0, 2000, 0.0, 0.0),
    ("000B", 0.0, 2000, 0.0, 0.0),
    ("A00B", 0.0, 2000, 0.0, 0.0),
    ("A000", 1.0, 2000, 0.1115, 0.004655073560635478),
    ("0B00", 1.0, 2000, 0.288, 0.010128143445114826),
    ("0AB0", 1.0, 2000, 0.0735, 0.004736569702461174),
    ("000B", 1.0, 2000, 0.077, 0.005962656843917748),
    ("A00B", 1.0, 2000, 0.013, 0.0017796301699428694),
]


def test_verify_all_l2_stdout(capsys):
    assert main(["verify", "all", "--L", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_L2_SHA256


def test_verify_all_l3_stdout(capsys):
    # the only pin on the L3: counting-lemma and algebra lines
    assert main(["verify", "all", "--L", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_L3_SHA256


def test_simulate_l2_sampled_fields(capsys):
    argv = ["simulate", "--L", "2", "--trajectories", "2000", "--seed", "7"]
    assert main(argv + ["--t", "0", "--t", "1"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    fields = [(r["z"], r["t"], r["n"], r["mean"], r["stderr"]) for r in records]
    assert fields == SIMULATE_L2_SEED7


@pytest.mark.parametrize("argv,digest", DUMP_SHA256, ids=[" ".join(a) for a, _ in DUMP_SHA256])
def test_dump_stdout(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_lambda_csv_l2(tmp_path):
    path = tmp_path / "lambda.csv"
    assert main(["verify", "duality", "--L", "2", "--lambda-out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAMBDA_L2_SHA256


def test_lambda_csv_l3_cli(tmp_path):
    # `--L 3` writes the table at the duality row's largest size, 2
    path = tmp_path / "lambda.csv"
    assert main(["verify", "duality", "--L", "3", "--lambda-out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LAMBDA_L2_SHA256


def test_lambda_csv_l3():
    fh = io.StringIO()
    write_lambda_csv(fh, sum_rule_table(3))
    assert hashlib.sha256(fh.getvalue().encode()).hexdigest() == LAMBDA_L3_SHA256
