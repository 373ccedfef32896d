"""Self-test of the benchmark itself, at tiny sizes (about 20 seconds).

    python3 bench/selftest.py

Checks that every workload runs and reports each metric named in
BENCHMARK.json with its unit, that corrupted outputs count as failed,
that traced counts repeat exactly between repetitions, and that the
benchmark refuses to run where there are no asep2 sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess

import numpy as np

import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def units_of(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_workloads() -> None:
    expect(set(run.WORKLOADS) == {w["name"] for w in BENCH["workloads"]}, "workload names")
    for workload in run.WORKLOADS:
        plain = run.collect(workload, 1, 0, trace=False, tiny=True)["result"]
        expect(plain["correct"], f"{workload}: untraced run not correct")
        expect(units_of(plain) == END_TO_END, f"{workload}: end-to-end metrics {units_of(plain)}")
        expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{workload}: zero metric")

        out = run.collect(workload, 1, 0, trace=True, tiny=True)
        traced = out["result"]
        expect(traced["correct"], f"{workload}: traced run not correct")
        expect(units_of(traced) == PER_LAYER, f"{workload}: per-layer metrics {units_of(traced)}")
        counts = [
            {k: v for k, v in r["layers"].items() if run.layer_unit(k) == "count"}
            for r in out["reps"] if "layers" in r
        ]
        expect(len(counts) >= 2 and all(c == counts[0] for c in counts), f"{workload}: counts differ")
        print(f"selftest: {workload} ok ({plain['attempted']} operations, {plain['failed']} failed)")


def test_corrupted_outputs_fail() -> None:
    text = "RELATION a PASS\nRELATION b PASS\n"
    expect(workloads.verify_check((0, text, None)).failed == 0, "clean verify output failed")
    bad = workloads.verify_check((1, text + "RELATION c FAIL 0 1 q\n", None))
    expect(bad.failed == 1 and bad.wrong, "injected FAIL line not counted")
    lying = workloads.verify_check((0, text + "RELATION c FAIL 0 1 q\n", None))
    expect(lying.failed == 1 and len(lying.wrong) == 2, "exit 0 with a FAIL line not caught")
    crash = workloads.verify_check((None, text, "ValueError()"))
    expect(crash.failed == crash.attempted == 2, "exception not counted")

    record = {"z": "A000", "t": 1.0, "n": 10, "mean": 0.5, "stderr": 0.1, "prediction": 0.5}
    def closure(z, rc):
        doc = json.dumps({"records": [dict(record, zscore=0.0), dict(record, zscore=z)]})
        return workloads.closure_check([(["simulate"], 2, 1, 10, rc, doc, None)])
    expect(closure(0.3, 0).failed == 0, "clean closure output failed")
    inf = closure(math.inf, 1)
    expect(inf.failed == 1 and not inf.wrong, "non-finite z not counted as a failure")
    expect(closure(6.0, 1).failed == 1, "|z| > 5 not counted")
    expect(closure(6.0, 0).wrong, "exit 0 with |z| > 5 not caught")
    garbled = workloads.closure_check([(["simulate"], 2, 1, 10, 0, "{", None)])
    expect(garbled.failed == 2 and garbled.wrong, "unparseable simulate output not counted")

    pi = np.array([0.25, 0.75])
    sound = np.tile(pi[:, None], (1, 2))
    ok = workloads.kernel_check([("k", pi, 1000.0, sound, None)])
    expect(ok.failed == 0, "sound kernel failed")
    broken = workloads.kernel_check([("k", pi, 1.0, sound * 1.001, None)])
    expect(broken.failed == 1 and broken.wrong, "broken column sums not counted")
    raised = workloads.kernel_check([("k", pi, 30.0, None, "NonConvergence()")])
    expect(raised.failed == 1 and not raised.wrong, "raising kernel not counted")
    print("selftest: corrupted outputs count as failed")


def test_refuses_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [*BENCH["command"], "--workload", "verify-exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "ran without asep2 sources")
    print("selftest: refuses to run without sources")


if __name__ == "__main__":
    test_corrupted_outputs_fail()
    test_refuses_without_sources()
    test_workloads()
    print("selftest: ok")
