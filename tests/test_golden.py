"""Golden outputs: refactors must leave the CLI's contracts byte-identical."""

import hashlib
import json

from asep2.cli import main

VERIFY_ALL_L2_SHA256 = "246cf9011e4ec82618b8b39753d9f031932112737f74616ddb9a8b0b79d781f2"

# (z, t, n, mean, stderr) of `simulate --L 2 --trajectories 2000 --seed 7
# --t 0 --t 1`; `prediction` is left out because it depends on the BLAS build
SIMULATE_L2_SEED7 = [
    ("A000", 0.0, 2000, 0.5, 0.0),
    ("0B00", 0.0, 2000, 0.0, 0.0),
    ("0AB0", 0.0, 2000, 0.0, 0.0),
    ("000B", 0.0, 2000, 0.0, 0.0),
    ("A00B", 0.0, 2000, 0.0, 0.0),
    ("A000", 1.0, 2000, 0.10475, 0.004550997092645592),
    ("0B00", 1.0, 2000, 0.282, 0.010064225967363864),
    ("0AB0", 1.0, 2000, 0.078, 0.0047401724248500345),
    ("000B", 1.0, 2000, 0.0785, 0.006015560529513615),
    ("A00B", 1.0, 2000, 0.01275, 0.0017628875847081568),
]


def test_verify_all_l2_stdout(capsys):
    assert main(["verify", "all", "--L", "2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_L2_SHA256


def test_simulate_l2_sampled_fields(capsys):
    argv = ["simulate", "--L", "2", "--trajectories", "2000", "--seed", "7"]
    assert main(argv + ["--t", "0", "--t", "1"]) == 0
    records = json.loads(capsys.readouterr().out)["records"]
    fields = [(r["z"], r["t"], r["n"], r["mean"], r["stderr"]) for r in records]
    assert fields == SIMULATE_L2_SEED7
