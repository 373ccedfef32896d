"""One repetition of one workload in a fresh interpreter.

    python3 bench/worker.py <workload> --seed N [--tiny] [--spans PATH]

Prints one JSON object: set-up and timed wall time, peak resident set,
the outcome of the output checks and, with --spans, the per-layer
metrics of the traced repetition (its spans are written to PATH).
Set-up runs from the first statement of this file to the first timed
call: importing asep2 and building the workload's inputs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process.

    VmHWM belongs to this process image alone.  ru_maxrss would also
    count the parent's memory, which Linux carries across fork and exec.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", help="trace every layer and write the spans here")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.spans:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        spans.install(tracer, spans.HOOKS)
    inputs = workload.prepare(args.seed, args.tiny)
    if tracer is not None:
        tracer.reset()
    t_timed = time.perf_counter()
    raw = workload.run(inputs)
    t_end = time.perf_counter()

    result = {"setup_s": t_timed - T_START, "wall_s": t_end - t_timed}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(spans.SpanSummary(tracer))
        result["spans"] = len(tracer.name)
        tracer.save(args.spans)
    outcome = workload.check(raw)
    result.update(
        attempted=outcome.attempted,
        failed=outcome.failed,
        wrong=outcome.wrong,
        trajectories=outcome.trajectories,
        peak_rss_mb=peak_rss_mb(),
        numpy=np.__version__,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
