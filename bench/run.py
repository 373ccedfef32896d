"""Benchmark of asep2: exact verification, Monte-Carlo closure, kernels.

    python3 bench/run.py --workload {verify-exact,closure-mc,kernel-horizon}
                         --seed N --seconds S --trace {0,1}

Runs repetitions of one workload, each in a fresh single-threaded
interpreter (bench/worker.py), until S seconds have passed and at least
MIN_REPS repetitions are done.  Times are medians over the repetitions,
scaled to reference speed: times reference.NOMINAL_S over the median
time of a fixed reference loop run between workers (see reference.py).
With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones, plus the tracing overhead.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it records the
environment.  Every repetition's raw figures go to .bench_out/ in the
checkout.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread per process; fixed hashing for repeatable counts
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(PINNED_ENV)  # before numpy loads, for the reference loops

import reference  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "asep2"
OUT = ROOT / ".bench_out"
MIN_REPS = 3
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "ok_frac": "frac", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (
        ("_us", "us"), ("_per_s", "1/s"), ("_s", "s"), ("_frac", "frac"), (".sloc", "lines")
    ):
        if name.endswith(suffix):
            return unit
    return "count"


class Probes:
    """Reference loops timed between workers (see reference.py).

    `speed(kind)` is the factor that takes a median time measured during
    the run to reference speed: NOMINAL_S over the loop's median time.
    """

    def __init__(self, workload: str):
        self.loops = {"setup": reference.rational_loop, "wall": WORKLOADS[workload].reference}
        self.times: dict[str, list[float]] = {"setup": [], "wall": []}

    def probe(self) -> None:
        measured = {}
        for kind, loop in self.loops.items():
            if loop not in measured:
                measured[loop] = loop()
            self.times[kind].append(measured[loop])

    def speed(self, kind: str) -> float:
        return reference.NOMINAL_S / statistics.median(self.times[kind])


def run_worker(workload: str, seed: int, spans_path: Path | None = None, tiny=False) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), workload, "--seed", str(seed)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {cmd} exited {proc.returncode}")
    return json.loads(lines[-1])


def sloc(path: Path) -> int:
    """Non-blank lines that are not comments."""
    return sum(
        1 for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith("#")
    )


def provenance(args, numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    git = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ) if (ROOT / ".git").exists() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "threads": PINNED_ENV,
        "commit": git.stdout.strip() if git and git.returncode == 0 else None,
        "source_sha256": digest.hexdigest(),
    }


def collect(workload: str, seed: int, seconds: float, trace: bool, tiny=False) -> dict:
    """Run repetitions for `seconds`; returns the result object and raw reps."""
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}.npz"
    probes = Probes(workload)
    probes.probe()
    deadline = time.perf_counter() + seconds
    plain, traced = [], []
    while len(traced if trace else plain) < MIN_REPS or time.perf_counter() < deadline:
        # traced runs alternate which side goes first, so drift biases neither
        order = (None, spans_path) if len(traced) % 2 == 0 else (spans_path, None)
        for path in order if trace else (None,):
            (plain if path is None else traced).append(run_worker(workload, seed, path, tiny))
            probes.probe()
    reps = plain + traced
    wall_speed = probes.speed("wall")

    def timed(values) -> float:
        return statistics.median(values) * wall_speed

    first = reps[0]
    correct = all(
        not r["wrong"] and (r["attempted"], r["failed"]) == (first["attempted"], first["failed"])
        for r in reps
    )
    if trace:
        # counts must repeat exactly between repetitions of one seed
        counts = [
            {k: v for k, v in r["layers"].items() if layer_unit(k) == "count"} for r in traced
        ]
        correct = correct and all(c == counts[0] for c in counts)
        metrics = {
            name: timed([r["layers"][name] for r in traced]) if name not in counts[0] else value
            for name, value in traced[0]["layers"].items()
        }
        wall = timed(r["wall_s"] for r in plain)
        metrics["trace.overhead_frac"] = timed(r["wall_s"] for r in traced) / wall - 1
        metrics["dynamics.traj_per_s"] = first["trajectories"] / wall
        for module in LAYERS:
            metrics[f"{module}.sloc"] = sloc(PACKAGE / f"{module}.py")
        metrics["asep2.sloc"] = sum(sloc(p) for p in PACKAGE.glob("*.py"))
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain) * probes.speed("setup"),
            "wall_s": timed(r["wall_s"] for r in plain),
            "ok_frac": 1.0 - first["failed"] / first["attempted"],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    return {
        "result": {
            "correct": correct,
            "attempted": first["attempted"],
            "failed": first["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "reps": reps,
        "reference_s": probes.times,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no asep2 sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        out = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = provenance(args, out["reps"][0]["numpy"])
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"env": env, **out}, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
