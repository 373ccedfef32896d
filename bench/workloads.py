"""The benchmark's three workloads and the checks on their outputs.

Each workload has three steps, all run inside one fresh worker process:

    prepare(seed, tiny) -> inputs     import asep2, build the inputs (set-up)
    run(inputs)         -> raw        the timed section
    check(raw)          -> Outcome    outside the timed section; pure

`check` takes only what `run` returned, so a corrupted output can be fed
to it directly (see selftest.py).  An operation *fails* when it raises
or misses its check; an output is *wrong* when the program produced a
result that contradicts what it claims (a FAIL relation, a broken kernel
invariant, a JSON document inconsistent with its own exit code).  Known
defects (`NonConvergence`, an infinite z-score) fail without being wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

import reference

ZSCORE_LIMIT = 5.0  # the bound `asep2 simulate` itself applies
CLOSURE_TRAJECTORIES = 10_000
TINY_TRAJECTORIES = 200
# (L, N, M, horizons): sector generators and the times they are evolved to
KERNEL_CASES = (
    (4, 3, 3, (0.25, 1.0, 4.0)),
    (4, 2, 2, (30.0,)),
    (3, 2, 2, (1.0, 30.0, 100.0, 1000.0)),
    (3, 1, 1, (1.0, 30.0, 100.0, 1000.0)),
)
TINY_KERNEL_CASES = ((3, 1, 1, (1.0, 30.0, 1000.0)),)
ERGODIC_T = 1000.0
COLUMN_SUM_TOL = 1e-12
NEGATIVE_TOL = 1e-12
STATIONARY_TOL = 1e-10
ERGODIC_TOL = 1e-8

_RELATION = re.compile(r"^RELATION (\S+) (PASS|FAIL)\b")


@dataclass
class Outcome:
    attempted: int
    failed: int
    wrong: list[str] = field(default_factory=list)
    trajectories: int = 0


def _cli_call(cli, argv):
    """Run `asep2.cli.main` in-process; returns (exit code, stdout, error)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc, error = cli.main(argv), None
        except Exception as exc:  # counted as failed operations by check
            rc, error = None, repr(exc)
    return rc, buf.getvalue(), error


# ---------------------------------------------------------------------
# verify-exact: `asep2 verify all --L 3`
# ---------------------------------------------------------------------


def verify_prepare(seed: int, tiny: bool):
    from asep2 import cli

    return cli, ["verify", "all", "--L", "1" if tiny else "3"]


def verify_run(inputs):
    cli, argv = inputs
    return _cli_call(cli, argv)


def verify_check(raw) -> Outcome:
    rc, text, error = raw
    statuses = [m.group(2) for m in map(_RELATION.match, text.splitlines()) if m]
    out = Outcome(attempted=max(1, len(statuses)), failed=statuses.count("FAIL"))
    if out.failed:
        out.wrong.append(f"{out.failed} relation(s) FAIL")
    if error is not None:
        out.failed = out.attempted
    elif rc != (1 if out.failed else 0):
        out.failed = max(out.failed, 1)
        out.wrong.append(f"exit code {rc} disagrees with the RELATION lines")
    return out


# ---------------------------------------------------------------------
# closure-mc: `asep2 simulate`, L=2 at t in {0, 1, 4}, then L=4 at t=4
# ---------------------------------------------------------------------


def closure_prepare(seed: int, tiny: bool):
    from asep2 import cli

    n = TINY_TRAJECTORIES if tiny else CLOSURE_TRAJECTORIES
    calls = []
    for L, ts in ((2, (0, 1, 4)), (4, (4,))):
        argv = ["simulate", "--L", str(L), "--trajectories", str(n), "--seed", str(seed)]
        for t in ts:
            argv += ["--t", str(t)]
        calls.append((argv, len(cli.default_dual_coordinates(L)), len(ts), n))
    return cli, calls


def closure_run(inputs):
    cli, calls = inputs
    return [(*call, *_cli_call(cli, call[0])) for call in calls]


def closure_check(raw) -> Outcome:
    out = Outcome(attempted=0, failed=0)
    for argv, n_coords, n_times, n, rc, text, error in raw:
        expected = n_coords * n_times
        out.attempted += expected
        out.trajectories += n * n_times
        if error is not None:
            out.failed += expected
            continue
        try:
            records = json.loads(text)["records"]
        except (ValueError, KeyError, TypeError):
            out.failed += expected
            out.wrong.append(f"{argv}: output is not a simulate JSON document")
            continue
        if len(records) != expected:
            out.failed += abs(expected - len(records))
            out.wrong.append(f"{argv}: {len(records)} records, expected {expected}")
        worst = 0.0
        for rec in records:
            z = rec["zscore"]
            worst = max(worst, abs(z))
            if not math.isfinite(z) or abs(z) > ZSCORE_LIMIT:
                out.failed += 1
            if rec["n"] != n or not math.isfinite(rec["mean"]):
                out.wrong.append(f"{argv}: record {rec['z']} t={rec['t']} has n={rec['n']}, mean={rec['mean']}")
        if rc != (1 if worst > ZSCORE_LIMIT else 0):
            out.wrong.append(f"{argv}: exit code {rc} disagrees with worst |z| = {worst}")
    return out


# ---------------------------------------------------------------------
# kernel-horizon: dynamics.evolve on float sector generators
# ---------------------------------------------------------------------


def kernel_prepare(seed: int, tiny: bool):
    from asep2 import dynamics, measures
    from asep2.generator import ModelParams, Ring, build_H_sector
    from asep2.lattice import Sector, enumerate_sector

    cases = []
    for L, N, M, ts in TINY_KERNEL_CASES if tiny else KERNEL_CASES:
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        sector = Sector(L, N, M)
        op = build_H_sector(p, sector, Ring.FLOAT)
        mu = measures.canonical(sector).normalize(p.q0)
        pi = np.array([mu.probability(c) for c in enumerate_sector(sector)])
        cases += [(f"L{L}({N},{M}) t={t:g}", op, pi, t) for t in ts]
    return dynamics.evolve, cases


def kernel_run(inputs):
    evolve, cases = inputs
    out = []
    for label, op, pi, t in cases:
        try:
            out.append((label, pi, t, evolve(op, t).matrix, None))
        except Exception as exc:  # NonConvergence today; counted as failed
            out.append((label, pi, t, None, repr(exc)))
    return out


def kernel_defects(K: np.ndarray, pi: np.ndarray, t: float) -> list[str]:
    """Invariants every exp(-H t) must meet; empty when the kernel is sound."""
    bad = []
    if K.shape != (pi.size, pi.size):
        return [f"shape {K.shape}, expected {(pi.size, pi.size)}"]
    col = float(np.max(np.abs(K.sum(axis=0) - 1.0)))
    if not col <= COLUMN_SUM_TOL:
        bad.append(f"column sums off by {col:.3g}")
    low = float(K.min())
    if not low >= -NEGATIVE_TOL:
        bad.append(f"entry {low:.3g} < 0")
    drift = float(np.max(np.abs(K @ pi - pi)))
    if not drift <= STATIONARY_TOL:
        bad.append(f"|K pi - pi| = {drift:.3g}")
    if t >= ERGODIC_T:
        gap = float(np.max(np.abs(K - pi[:, None])))
        if not gap <= ERGODIC_TOL:
            bad.append(f"columns {gap:.3g} away from pi")
    return bad


def kernel_check(raw) -> Outcome:
    out = Outcome(attempted=len(raw), failed=0)
    for label, pi, t, K, error in raw:
        if error is not None:
            out.failed += 1
            continue
        bad = kernel_defects(K, pi, t)
        if bad:
            out.failed += 1
            out.wrong.append(f"{label}: " + "; ".join(bad))
    return out


class Workload(NamedTuple):
    prepare: Callable
    run: Callable
    check: Callable
    reference: Callable[[], float]  # a loop whose speed tracks this workload's


WORKLOADS = {
    "verify-exact": Workload(verify_prepare, verify_run, verify_check, reference.rational_loop),
    "closure-mc": Workload(closure_prepare, closure_run, closure_check, reference.rational_loop),
    "kernel-horizon": Workload(kernel_prepare, kernel_run, kernel_check, reference.dense_matmul),
}
