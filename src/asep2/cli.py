"""Command-line front door: verification suites, measures, simulations.

Subcommands:

    verify {algebra,reversibility,duality,measures,lemmas,all}
    measure {canonical,grandcanonical,pure,profile,partition}
    simulate
    dump-generator
    dump-symmetry

Exit codes: 0 all checks pass, 1 an identity or statistical check
failed, 2 usage error (including an unreadable config file, a negative
time, no trajectories or a sector outside the lattice) or desk-scale
resource cap breached.

Parameters come from built-in defaults (L=2, r=2, l=1/2 so q=2, w=1 and
all evaluated q-powers are dyadic), overridden by an optional flat
key = value config file, overridden by flags.  Exactly one of the rate
pair (r, ell) or the (q, w) pair may be supplied.  All outputs are
deterministic given the run configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import duality, dynamics, measures, qsym
from .generator import (
    ModelParams,
    Ring,
    build_H,
    build_H_sector,
    dump_matrix,
    h_exact,
)
from .lattice import A, B, Config, Positions, Sector, vacant_config
from .measures import Measure
from .reporting import Report

SUITES = ("algebra", "reversibility", "duality", "measures", "lemmas", "all")
MEASURE_KINDS = ("canonical", "grandcanonical", "pure", "profile", "partition")
VERIFY_MAX_L = 3


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    params: ModelParams
    ring: Ring
    N: int | None
    M: int | None
    ts: list[float]
    trajectories: int
    seed: int
    out: str | None
    nu: float
    mu: float
    species: int
    lambda_out: str | None = None


def _read_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        values[key] = value
    return values


def resolve_config(args) -> RunConfig:
    fv = _read_config_file(args.config) if args.config else {}

    def pick(key, cast, default=None):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in fv:
            return cast(fv[key])
        return default

    L = pick("L", int, 2)
    if L is None or L < 1:
        raise UsageError(f"L must be a positive integer, got {L}")

    r = pick("r", Fraction)
    ell = pick("ell", Fraction)
    q = pick("q", Fraction)
    w = pick("w", Fraction)
    if (r is not None or ell is not None) and (q is not None or w is not None):
        raise UsageError("supply either (r, ell) or (q, w), not both")
    try:
        if q is not None or w is not None:
            params = ModelParams.from_qw(L, q if q is not None else 1, w if w is not None else 1)
        elif r is not None or ell is not None:
            params = ModelParams(
                L, r if r is not None else 2, ell if ell is not None else Fraction(1, 2)
            )
        else:
            params = ModelParams(L, Fraction(2), Fraction(1, 2))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    ts = getattr(args, "t", None)
    if ts is None and "t" in fv:
        ts = [float(part) for part in fv["t"].split(",") if part.strip()]
    ts = [float(t) for t in ts] if ts is not None else []
    if any(t < 0 for t in ts):
        raise UsageError("times must be nonnegative")
    trajectories = pick("trajectories", int, 100000)
    if trajectories < 1:
        raise UsageError(f"need at least one trajectory, got {trajectories}")
    ring_name = pick("ring", str, None)
    if ring_name is not None and ring_name not in ("exact", "float"):
        raise UsageError(f"ring must be exact or float, got {ring_name}")
    species_name = pick("species", str, "A")
    if species_name not in ("A", "B"):
        raise UsageError("species must be A or B")

    return RunConfig(
        params=params,
        ring=Ring(ring_name) if ring_name else Ring.EXACT,
        N=pick("N", int),
        M=pick("M", int),
        ts=ts,
        trajectories=trajectories,
        seed=pick("seed", int, 12345),
        out=pick("out", str),
        nu=pick("nu", float, 0.0),
        mu=pick("mu", float, 0.0),
        species=A if species_name == "A" else B,
    )


def _open_out(cfg: RunConfig):
    if cfg.out:
        return open(cfg.out, "w")
    return sys.stdout


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def _suite_reports(suite: str, L: int, params: ModelParams) -> Report:
    report = Report()
    if suite in ("algebra", "all"):
        for size in range(1, min(L, 3) + 1):
            report.extend(qsym.check_symmetry(h_exact(size), size))
        for size in range(1, min(L, 2) + 1):
            report.extend(qsym.check_algebra_relations(size))
    if suite in ("reversibility", "all"):
        for size in range(1, min(L, 3) + 1):
            report.extend(measures.check_reversibility(h_exact(size), size))
    if suite in ("duality", "all"):
        for size in range(1, min(L, 2) + 1):
            report.extend(duality.check_duality(size))
            report.extend(duality.check_sum_rules(size))
    if suite in ("measures", "all"):
        report.extend(measures.check_partition_functions(min(L, 3)))
        for size in range(1, min(L, 2) + 1):
            p_size = ModelParams(size, params.r, params.ell)
            report.extend(measures.check_grandcanonical_stationarity(p_size))
            report.extend(measures.check_uniqueness(p_size, size))
            report.extend(measures.check_marginal_independence(size))
        report.extend(measures.check_shock_agreement(min(L, 3)))
    if suite in ("lemmas", "all"):
        report.extend(lattice_lemma_report(L))
        for size in range(1, min(L, 2) + 1):
            report.extend(qsym.check_conjugation_lemma(size))
    return report


def lattice_lemma_report(L: int) -> Report:
    from .lattice import check_counting_lemmas, check_permutation_identities

    report = Report()
    report.extend(check_counting_lemmas(min(L, 3)))
    report.extend(check_permutation_identities(4, min(L, 3)))
    return report


def cmd_verify(args, cfg: RunConfig) -> int:
    if cfg.params.L > VERIFY_MAX_L:
        raise UsageError(
            f"verification suites are desk-scale: need L <= {VERIFY_MAX_L}"
        )
    report = _suite_reports(args.suite, cfg.params.L, cfg.params)
    text = report.render()
    print(text)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    if args.suite in ("duality", "all") and cfg.lambda_out:
        rows = duality.sum_rule_table(min(cfg.params.L, 2))
        with open(cfg.lambda_out, "w") as fh:
            duality.write_lambda_csv(fh, rows)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------


def cmd_measure(args, cfg: RunConfig) -> int:
    p = cfg.params
    what = args.what
    if what == "canonical":
        try:
            sector = Sector(p.L, cfg.N or 0, cfg.M or 0)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    fh = _open_out(cfg)
    try:
        if what == "partition":
            from .qring import q_multinomial

            fh.write("N,M,Z\n")
            for n in range(2 * p.L + 1):
                for m in range(2 * p.L - n + 1):
                    fh.write(f"{n},{m},{q_multinomial(2 * p.L, n, m)}\n")
        elif what == "canonical":
            mu = measures.canonical(sector)
            if cfg.ring is Ring.FLOAT:
                mu = mu.normalize(p.q0)
            measures.write_measure_csv(fh, mu)
        elif what == "grandcanonical":
            measures.write_measure_csv(fh, measures.grandcanonical(cfg.nu, cfg.mu, p))
        elif what == "pure":
            chem = cfg.nu if cfg.species == A else cfg.mu
            measures.write_measure_csv(fh, measures.pure_measure(cfg.species, chem, p))
        elif what == "profile":
            chem = cfg.nu if cfg.species == A else cfg.mu
            profile = measures.shock_profile(cfg.species, chem, p)
            rows = [(k, profile.density(k)) for k in range(-p.L + 1, p.L + 1)]
            measures.write_profile_csv(fh, rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------


def default_dual_coordinates(L: int) -> list[Positions]:
    """Five dual coordinate sets covering sectors (1,0), (0,1), (1,1)."""
    lo, hi = -L + 1, L
    if L == 1:
        return [
            Positions(L, x=(lo,)),
            Positions(L, y=(hi,)),
            Positions(L, x=(lo,), y=(hi,)),
            Positions(L, y=(lo,)),
            Positions(L, x=(hi,)),
        ]
    return [
        Positions(L, x=(lo,)),
        Positions(L, y=(0,)),
        Positions(L, x=(0,), y=(1,)),
        Positions(L, y=(hi,)),
        Positions(L, x=(lo,), y=(hi,)),
    ]


def default_initial_config(L: int) -> Config:
    """Point-mass start with at least one particle of each species."""
    if L == 1:
        return Config.from_text("AB")
    c = vacant_config(L)
    c = c.with_state(-L + 1, A)
    c = c.with_state(1, B)
    c = c.with_state(L, A)
    return c


def zscore(mean: float, stderr: float, prediction: float) -> float:
    if stderr == 0.0:
        return 0.0 if abs(mean - prediction) < 1e-12 else math.inf
    return (mean - prediction) / stderr


def cmd_simulate(args, cfg: RunConfig) -> int:
    p = cfg.params
    ts = cfg.ts or [0.0, 1.0]
    zs = default_dual_coordinates(p.L)
    eta0 = default_initial_config(p.L)
    p0 = Measure.point_mass(eta0)
    records = []
    for it, t in enumerate(sorted(ts)):
        estimates = dynamics.estimate_Q_many(
            zs, p0, t, cfg.trajectories, cfg.seed + it, p
        )
        for z, est in zip(zs, estimates):
            prediction = dynamics.duality_rhs(z, p0, t, p)
            records.append(
                {
                    "z": z.to_config().text(),
                    "t": t,
                    "n": est.n,
                    "mean": est.mean,
                    "stderr": est.stderr,
                    "prediction": prediction,
                    "zscore": zscore(est.mean, est.stderr, prediction),
                }
            )
    payload = {
        "initial": eta0.text(),
        "L": p.L,
        "r": str(p.r),
        "ell": str(p.ell),
        "seed": cfg.seed,
        "trajectories": cfg.trajectories,
        "records": records,
    }
    text = json.dumps(payload, sort_keys=True, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    worst = max((abs(rec["zscore"]) for rec in records), default=0.0)
    return 1 if worst > 5.0 else 0


# ---------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------


def cmd_dump_generator(args, cfg: RunConfig) -> int:
    p = cfg.params
    if (cfg.N is None) != (cfg.M is None):
        raise UsageError("sector dumps need both N and M")
    sector = None
    try:
        if cfg.N is not None:
            sector = Sector(p.L, cfg.N, cfg.M)
            op = build_H_sector(p, sector, cfg.ring)
        else:
            op = build_H(p, cfg.ring)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    fh = _open_out(cfg)
    try:
        dump_matrix(op, fh, p, sector)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def cmd_dump_symmetry(args, cfg: RunConfig) -> int:
    p = cfg.params
    if p.L > 3:
        raise UsageError("symmetry operators are desk-scale: need L <= 3")
    fh = _open_out(cfg)
    try:
        for name, op in qsym.symmetry_operators(p.L):
            fh.write(f"operator {name}\n")
            dump_matrix(op, fh, p)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value parameter file")
    common.add_argument("--L", type=int)
    common.add_argument("--r", type=Fraction)
    common.add_argument("--ell", type=Fraction)
    common.add_argument("--q", type=Fraction)
    common.add_argument("--w", type=Fraction)
    common.add_argument("--N", type=int)
    common.add_argument("--M", type=int)
    common.add_argument("--t", type=float, action="append")
    common.add_argument("--trajectories", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--out")
    common.add_argument("--ring", choices=("exact", "float"))
    common.add_argument("--nu", type=float)
    common.add_argument("--mu", type=float)
    common.add_argument("--species", choices=("A", "B"))

    parser = argparse.ArgumentParser(
        prog="asep2",
        description="Two-component ASEP: exact verification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="run exact identity suites")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--lambda-out", dest="lambda_out", help="sum-rule CSV path")
    p_verify.set_defaults(func=cmd_verify)

    p_measure = sub.add_parser("measure", parents=[common], help="emit measure artifacts")
    p_measure.add_argument("what", choices=MEASURE_KINDS)
    p_measure.set_defaults(func=cmd_measure)

    p_sim = sub.add_parser("simulate", parents=[common], help="Monte-Carlo duality closure")
    p_sim.set_defaults(func=cmd_simulate)

    p_dg = sub.add_parser("dump-generator", parents=[common], help="dump the generator matrix")
    p_dg.set_defaults(func=cmd_dump_generator)

    p_ds = sub.add_parser("dump-symmetry", parents=[common], help="dump the symmetry operators")
    p_ds.set_defaults(func=cmd_dump_symmetry)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        cfg.lambda_out = getattr(args, "lambda_out", None)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
