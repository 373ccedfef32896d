"""Command-line front door: verification suites, measures, simulations.

Subcommands:

    verify {algebra,reversibility,duality,measures,lemmas,all}
    measure {canonical,grandcanonical,pure,profile,partition}
    simulate
    dump-generator
    dump-symmetry

Exit codes: 0 all checks pass, 1 an identity or statistical check failed
(for simulate: a z-score beyond 5, or an exact mean of Q_z(eta_t) that
disagrees with its duality prediction beyond EXACT_RTOL relative and
EXACT_ATOL absolute), 2 usage error
(including a bad flag value, an unknown config key, an unreadable config
file or value, an output path that cannot be opened, --lambda-out on a
suite without the duality row's sum rules, a negative or
non-finite time, a chemical potential whose fugacity exponent 2L nu or
2L mu is not a finite float, rates whose float r, l or q0 = sqrt(r/l)
is not a positive finite float, no trajectories, a
sector outside the lattice, a shock profile at q = 1, a float measure or
verify's float grandcanonical stationarity check whose q-powers overflow
a float (q0**e past 1.8e308) or a simulate seed
outside 0..2^63 - (number of times)) or desk-scale resource cap breached
(including a sector larger than the full basis at FLOAT_FULL_MAX_L, a
simulation whose bound trajectories * (number of times + (2L - 1) *
max(r, l) * sum of the times) on start draws and jump proposals, with
the steps of each block's longest path, (2L - 1) * max(r, l) * sum of
the times, at STEP_PROPOSALS each, exceeds SIMULATE_MAX_PROPOSALS (so
`--L 2 --trajectories 1 --t 18500` and `--L 5 --trajectories 1 --t
6200`, about a second of sampler steps each, exit 2), or
whose exact law and duality predictions need more than
SIMULATE_MAX_SERIES term products on the cheaper of the dense kernel and
the vector series in each sector (`dynamics.plan`; at L <= 5 every
default sector fits the dense kernel, whose work grows like log t, so
long horizons pass this cap there), a sector or a
simulation at L > lattice.CODE_MAX_L = 19, where a basis index would
overflow int64, and a `measure partition` table at L > CODE_MAX_L),
each printed as one `usage error: ...` line, 3 internal
error: any other exception, such as a write that fails after its file
was opened, prints one `error: ...` line and no traceback.

Parameters come from DEFAULTS (L=2, r=2, l=1/2 so q=2, w=1 and all
evaluated q-powers are dyadic), overridden by an optional flat
key = value config file whose keys are the exact flag names (`t = 0,1`
stands for `--t=0,1`), overridden by flags.  Exactly one of the rate
pair (r, ell) or the (q, w) pair may be supplied.  All outputs are
deterministic given the run configuration and seed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import duality, dynamics, lattice, measures, qsym
from .generator import (
    EXACT_FULL_MAX_L,
    FLOAT_FULL_MAX_L,
    ModelParams,
    Ring,
    build_H,
    build_H_sector,
    dump_matrix,
    h_exact,
)
from .lattice import A, B, Config, Sector
from .measures import Measure
from .qring import q_multinomial
from .reporting import Report

MEASURE_KINDS = ("canonical", "grandcanonical", "pure", "profile", "partition")
# trajectories * (number of times + (2L - 1) * max(r, l) * sum of the
# times) bounds the expected number of start draws and jump proposals of a
# simulate run: each trajectory draws its start once per time, so t = 0
# runs are bounded too
SIMULATE_MAX_PROPOSALS = 1e8
# the fixed cost of one step of the sampler, counted in proposals: a step
# of a one-row block against a proposal at full width (BLOCK rows, its
# steps charged), at L = 2, 4 and 10 on one thread, three runs each:
# 9.3-16.8 us against 10.2-19 ns, a ratio of 790-1070, median 910.  Each
# block steps once per proposal of its longest path, about
# (2L - 1) * max(r, l) * t steps at each time, so those steps are charged
# at this price under SIMULATE_MAX_PROPOSALS too
STEP_PROPOSALS = 900
# the work of the exact law and the duality predictions in term products
# (`dynamics.plan`, on the path each sector takes), summed over the
# start's sector and the dual sectors at every time: `simulate --L 19
# --t 1` needs 6.5e6 and --t 100 5.4e8; at about 4.5 ns a term, 1e9 is
# some 5 s of series
SIMULATE_MAX_SERIES = 1e9
# a simulate record's exact mean and duality prediction must agree within
# EXACT_ATOL absolute or EXACT_RTOL relative: the float self-duality
# check.  At the longest horizon the caps accept for one trajectory, on
# L <= 5 at r/l from 1e-6 to 100, they agree within 5.9e-12 relative
EXACT_RTOL, EXACT_ATOL = 1e-10, 1e-15


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Every parse failure, of a flag or of a config line, is one usage error."""

    def error(self, message):
        raise UsageError(message)


# the run's values where neither a config file nor a flag gives one; q and w
# are used only when one of them is given
DEFAULTS = dict(
    L=2, r=Fraction(2), ell=Fraction(1, 2), q=Fraction(1), w=Fraction(1), N=None, M=None,
    t=(0.0, 1.0), trajectories=100000, seed=12345, out=None, ring=Ring.EXACT,
    nu=0.0, mu=0.0, species="A", lambda_out=None,
)


def rational(text: str) -> Fraction:
    """Parse a rate parameter such as 2 or 1/2; a zero denominator is a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def times(text: str) -> list[float]:
    """Parse a comma-separated list of times such as 0,1."""
    return [float(part) for part in text.split(",") if part.strip()]


def _read_config_file(path: str, options: argparse.ArgumentParser) -> dict:
    """The values a flat `key = value` file gives: each line is parsed as
    the flag `--key=value` by the parser of the shared options."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    tokens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        tokens.append(f"--{key}={value}")
    try:
        return vars(options.parse_args(tokens))
    except UsageError as exc:
        raise UsageError(f"config file {path}: {exc}") from exc


def parse_run(argv: list[str]) -> argparse.Namespace:
    """The run's values, {**DEFAULTS, **config file, **flags}, checked once,
    with the model parameters as `params`."""
    parser, options = build_parser()
    given = vars(parser.parse_args(_glue_float_values(argv)))
    if "config" in given:
        given = {**_read_config_file(given["config"], options), **given}
    args = argparse.Namespace(**{**DEFAULTS, **given})
    if given.keys() & {"r", "ell"} and given.keys() & {"q", "w"}:
        raise UsageError("supply either (r, ell) or (q, w), not both")
    try:
        if given.keys() & {"q", "w"}:
            args.params = ModelParams.from_qw(args.L, args.q, args.w)
        else:
            args.params = ModelParams(args.L, args.r, args.ell)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # float of a Fraction past 1.8e308 raises, and below 5e-324 it is 0
    p = args.params
    try:
        in_range = all(0 < x < math.inf for x in (float(p.r), float(p.ell), p.q0))
    except OverflowError:
        in_range = False
    if not in_range:
        raise UsageError("rates must be positive finite floats: r, l and q0 = sqrt(r/l)")
    if not all(0 <= t < math.inf for t in args.t):
        raise UsageError("times must be finite and nonnegative")
    if args.trajectories < 1:
        raise UsageError(f"need at least one trajectory, got {args.trajectories}")
    # the fugacity exponents nu N and mu M reach 2L nu and 2L mu, compared
    # as Fractions since L may be past the float range
    if not all(
        math.isfinite(chem) and 2 * p.L * abs(Fraction(chem)) <= sys.float_info.max
        for chem in (args.nu, args.mu)
    ):
        raise UsageError(
            f"chemical potentials must keep 2L nu and 2L mu finite, got nu={args.nu}, "
            f"mu={args.mu} at L={p.L}"
        )
    return args


@contextlib.contextmanager
def _q_powers_in_range(what: str, q0: float):
    """A float q-power past 1.8e308 raises OverflowError: a usage error.
    Wraps float evaluations only: an exact kernel that could pass int64
    raises OverflowError too (`sparse`), an internal error."""
    try:
        yield
    except OverflowError as exc:
        raise UsageError(
            f"{what} overflows at q = {q0:g}: a q-power is past the float range"
        ) from exc


@contextlib.contextmanager
def _writing(path: str | None, default=None):
    """Open path for writing, a usage error if it cannot be; default if no path."""
    if path is None:
        yield default
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc
    with fh:
        yield fh


# ---------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------


def _stationarity(p: ModelParams) -> Report:
    with _q_powers_in_range("the grandcanonical stationarity check", p.q0):
        return measures.check_grandcanonical_stationarity(p)


# verify's checks in report order, as rows (suite, largest L, checks); each
# check takes the rates at one size and is looked up in its module when it
# runs.  `verify SUITE --L n` runs the suite's rows in order, each at sizes
# 1..min(n, largest L), sizes outer, or once at n where largest L is None.
# The rows that stop at 2 are the slow ones: at 3 they would take `verify
# all --L 3` from 0.2 s to 0.4 s and from 34 to 52 MB peak RSS (in-process,
# once, on a shared 2-core machine).  --lambda-out writes the sum-rule table
# at the duality row's largest size
VERIFY_CHECKS = (
    ("algebra", EXACT_FULL_MAX_L, (lambda p: qsym.check_symmetry(h_exact(p.L), p.L),)),
    ("algebra", 2, (lambda p: qsym.check_algebra_relations(p.L),)),
    ("reversibility", EXACT_FULL_MAX_L,
     (lambda p: measures.check_reversibility(h_exact(p.L), p.L),)),
    ("duality", 2, (lambda p: duality.check_duality(p.L), lambda p: duality.check_sum_rules(p.L))),
    ("measures", EXACT_FULL_MAX_L, (lambda p: measures.check_partition_functions(p.L),)),
    ("measures", 2, (_stationarity, lambda p: measures.check_uniqueness(p),
                     lambda p: measures.check_marginal_independence(p.L))),
    ("measures", None, (lambda p: measures.check_shock_agreement(p.L),)),
    ("lemmas", EXACT_FULL_MAX_L, (lambda p: lattice.check_counting_lemmas(p.L),)),
    ("lemmas", EXACT_FULL_MAX_L, (lambda p: lattice.check_permutation_identities(p.L),)),
    ("lemmas", None, (lambda p: qsym.check_fundamental_matrices(),)),
    ("lemmas", 2, (lambda p: qsym.check_conjugation_lemma(p.L),)),
)
SUITES = (*dict.fromkeys(suite for suite, _, _ in VERIFY_CHECKS), "all")


def _rows(suite: str) -> list[tuple]:
    """The rows of VERIFY_CHECKS that `verify suite` runs, in order."""
    return [row for row in VERIFY_CHECKS if suite in (row[0], "all")]


def _suite_reports(suite: str, L: int, params: ModelParams) -> Report:
    """The suite's rows of VERIFY_CHECKS at lattice size L and the rates of params."""
    report = Report()
    for _, largest, checks in _rows(suite):
        for size in range(1, min(L, largest) + 1) if largest else (L,):
            rates = ModelParams(size, params.r, params.ell)
            for check in checks:
                report.extend(check(rates))
    return report


def cmd_verify(args) -> int:
    L = args.params.L
    if L > EXACT_FULL_MAX_L:
        raise UsageError(f"verification suites are desk-scale: need L <= {EXACT_FULL_MAX_L}")
    sum_rule_L = [min(L, largest) for name, largest, _ in _rows(args.suite) if name == "duality"]
    if args.lambda_out is not None and not sum_rule_L:
        raise UsageError(f"--lambda-out writes the sum rules, which verify {args.suite} omits")
    with _writing(args.out) as out, _writing(args.lambda_out) as lambda_fh:
        report = _suite_reports(args.suite, L, args.params)
        text = report.render()
        print(text)
        if out:
            out.write(text + "\n")
        if lambda_fh:
            duality.write_lambda_csv(lambda_fh, duality.sum_rule_table(sum_rule_L[0]))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------


def _sector(L: int, N: int, M: int) -> Sector:
    """Sector (N, M); a usage error, before any table is built, past
    lattice.CODE_MAX_L, off the lattice or past the full basis at FLOAT_FULL_MAX_L."""
    if L > lattice.CODE_MAX_L:
        raise UsageError(f"sectors are desk-scale: need L <= {lattice.CODE_MAX_L}, got {L}")
    try:
        sector = Sector(L, N, M)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cap = 3 ** (2 * FLOAT_FULL_MAX_L)
    if sector.size > cap:
        raise UsageError(
            f"sectors are desk-scale: ({N}, {M}) at L={L} has {sector.size} "
            f"configurations, need at most {cap}"
        )
    return sector


def cmd_measure(args) -> int:
    p = args.params
    what = args.what
    species = A if args.species == "A" else B
    chem = args.nu if species == A else args.mu
    if what == "canonical":
        sector = _sector(p.L, args.N or 0, args.M or 0)
    elif what == "profile":
        try:
            profile = measures.shock_profile(species, chem, p)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    elif what == "partition" and p.L > lattice.CODE_MAX_L:
        raise UsageError(
            f"partition functions are desk-scale: need L <= {lattice.CODE_MAX_L}, got {p.L}"
        )
    if what in ("grandcanonical", "pure") and p.L > FLOAT_FULL_MAX_L:
        raise UsageError(
            f"measures over all configurations are desk-scale: need L <= {FLOAT_FULL_MAX_L}"
        )
    with _q_powers_in_range(f"the {what} measure", p.q0):
        if what == "canonical":
            measure = measures.canonical(sector)
            if args.ring is Ring.FLOAT:
                measure = measure.normalize(p.q0)
        elif what == "grandcanonical":
            measure = measures.grandcanonical(args.nu, args.mu, p)
        elif what == "pure":
            # the grandcanonical measure with the other species at zero fugacity
            nu, mu = (chem, -math.inf) if species == A else (-math.inf, chem)
            measure = measures.grandcanonical(nu, mu, p)
    with _writing(args.out, sys.stdout) as fh:
        if what == "partition":
            fh.write("N,M,Z\n")
            for s in lattice.sectors(p.L):
                fh.write(f"{s.N},{s.M},{q_multinomial(2 * p.L, s.N, s.M)}\n")
        elif what in ("canonical", "grandcanonical", "pure"):
            measures.write_measure_csv(fh, measure)
        elif what == "profile":
            rows = [(k, profile.density(k)) for k in range(-p.L + 1, p.L + 1)]
            measures.write_profile_csv(fh, rows)
    return 0


# ---------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------


def default_dual_coordinates(L: int) -> list[Config]:
    """Five dual coordinate sets covering sectors (1,0), (0,1), (1,1)."""
    lo, hi = -L + 1, L
    if L == 1:
        coords = [((lo,), ()), ((), (hi,)), ((lo,), (hi,)), ((), (lo,)), ((hi,), ())]
    else:
        coords = [((lo,), ()), ((), (0,)), ((0,), (1,)), ((), (hi,)), ((lo,), (hi,))]
    return [Config.from_coordinates(L, x, y) for x, y in coords]


def default_initial_config(L: int) -> Config:
    """Point-mass start with at least one particle of each species."""
    if L == 1:
        return Config.from_text("AB")
    return Config.from_coordinates(L, (-L + 1, L), (1,))


def zscore(mean: float, sigma: float, prediction: float) -> float:
    if sigma == 0.0:
        return 0.0 if abs(mean - prediction) < 1e-12 else math.inf
    return (mean - prediction) / sigma


def _series_work(p, ts: list[float]) -> float:
    """The planned work (`dynamics.plan`) of `law_at` and `duality_rhs` at
    every time, in the sectors of the start and of the dual coordinates;
    called under the proposal cap, which keeps lam t finite."""
    configs = [default_initial_config(p.L), *default_dual_coordinates(p.L)]
    ops = [
        dynamics.sector_generator(p, Sector(p.L, n, m))
        for n, m in sorted({(c.N, c.M) for c in configs})
    ]
    return sum(dynamics.plan(op, t).work for op in ops for t in ts)


def _closure_payload(args, ts: list[float]) -> dict:
    p = args.params
    zs = default_dual_coordinates(p.L)
    eta0 = default_initial_config(p.L)
    p0 = Measure.point_mass(eta0)
    z_rows = lattice.config_rows(zs)
    records = []
    for it, t in enumerate(ts):
        estimates = dynamics.estimate_Q_many(
            zs, p0, t, args.trajectories, args.seed + it, p
        )
        exacts, variances = dynamics.q_moments(z_rows, *dynamics.law_at(p0, t, p), p.q0)
        predictions = dynamics.duality_rhs(zs, p0, t, p)
        for z, est, prediction, exact, var in zip(
            zs, estimates, predictions, exacts.tolist(), variances.tolist()
        ):
            sigma = math.sqrt(var / est.n)
            records.append(
                {
                    "z": z.text(),
                    "t": t,
                    "n": est.n,
                    "mean": est.mean,
                    "stderr": est.stderr,
                    "exact": exact,
                    "sigma": sigma,
                    "prediction": prediction,
                    "zscore": zscore(est.mean, sigma, prediction),
                }
            )
    return {
        "initial": eta0.text(),
        "L": p.L,
        "r": str(p.r),
        "ell": str(p.ell),
        "seed": args.seed,
        "trajectories": args.trajectories,
        "records": records,
    }


def cmd_simulate(args) -> int:
    p = args.params
    if p.L > lattice.CODE_MAX_L:
        raise UsageError(f"simulation is desk-scale: need L <= {lattice.CODE_MAX_L}, got {p.L}")
    # an empty `t =` line asks for the default times
    ts = sorted(args.t or DEFAULTS["t"])
    # time i seeds its block streams with SeedSequence([seed + i, b]), which
    # takes any nonnegative int; the bound seed + i < 2^63 is kept so that
    # the seeds accepted, and so the exit codes, stay as they were, and so
    # that every seed a run samples on fits a signed 64-bit integer
    if args.seed < 0 or args.seed + len(ts) - 1 >= 2**63:
        raise UsageError(
            f"seed must be in 0..2^63 - {len(ts)} for {len(ts)} time(s), got {args.seed}"
        )
    proposals, steps = dynamics.sampler_work(p, args.trajectories, ts)
    if proposals + STEP_PROPOSALS * steps > SIMULATE_MAX_PROPOSALS:
        raise UsageError(
            f"simulation is desk-scale: {proposals:.3g} start draws and jump proposals and "
            f"{steps:.3g} sampler steps at {STEP_PROPOSALS} proposals each, "
            f"need at most {SIMULATE_MAX_PROPOSALS:.0e}"
        )
    series = _series_work(p, ts)
    if series > SIMULATE_MAX_SERIES:
        raise UsageError(
            f"simulation is desk-scale: the exact law and the duality predictions "
            f"need {series:.3g} sparse term products, at most {SIMULATE_MAX_SERIES:.0e}"
        )
    with _writing(args.out, sys.stdout) as fh:
        payload = _closure_payload(args, ts)
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    records = payload["records"]
    worst = max((abs(rec["zscore"]) for rec in records), default=0.0)
    close = all(
        math.isclose(r["exact"], r["prediction"], rel_tol=EXACT_RTOL, abs_tol=EXACT_ATOL)
        for r in records
    )
    return 0 if worst <= 5.0 and close else 1


# ---------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------


def cmd_dump_generator(args) -> int:
    p = args.params
    if (args.N is None) != (args.M is None):
        raise UsageError("sector dumps need both N and M")
    if args.N is not None:
        sector = _sector(p.L, args.N, args.M)
        op = build_H_sector(p, sector, args.ring)
    else:
        sector = None
        try:
            op = build_H(p, args.ring)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    with _writing(args.out, sys.stdout) as fh:
        dump_matrix(op, fh, p, sector)
    return 0


def cmd_dump_symmetry(args) -> int:
    p = args.params
    if p.L > EXACT_FULL_MAX_L:
        raise UsageError(f"symmetry operators are desk-scale: need L <= {EXACT_FULL_MAX_L}")
    with _writing(args.out, sys.stdout) as fh:
        for name, op in qsym.symmetry_operators(p.L):
            fh.write(f"operator {name}\n")
            dump_matrix(op, fh, p)
    return 0


# ---------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command-line parser, and the parser of the options its commands
    share, which also reads config files (so it takes no abbreviations)."""
    options = _Parser(add_help=False, allow_abbrev=False, argument_default=argparse.SUPPRESS)
    options.add_argument("--L", type=int)
    options.add_argument("--r", type=rational)
    options.add_argument("--ell", type=rational)
    options.add_argument("--q", type=rational)
    options.add_argument("--w", type=rational)
    options.add_argument("--N", type=int)
    options.add_argument("--M", type=int)
    options.add_argument("--t", type=times, action="extend")
    options.add_argument("--trajectories", type=int)
    options.add_argument("--seed", type=int)
    options.add_argument("--out")
    options.add_argument("--ring", type=Ring, metavar="{exact,float}")
    options.add_argument("--nu", type=float)
    options.add_argument("--mu", type=float)
    options.add_argument("--species", choices=("A", "B"))

    parser = _Parser(
        prog="asep2",
        description="Two-component ASEP: exact verification and simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, text in (
        ("verify", cmd_verify, "run exact identity suites"),
        ("measure", cmd_measure, "emit measure artifacts"),
        ("simulate", cmd_simulate, "Monte-Carlo duality closure"),
        ("dump-generator", cmd_dump_generator, "dump the generator matrix"),
        ("dump-symmetry", cmd_dump_symmetry, "dump the symmetry operators"),
    ):
        commands[name] = sub.add_parser(
            name, parents=[options], help=text, allow_abbrev=False,
            argument_default=argparse.SUPPRESS,
        )
        commands[name].add_argument("--config", help="flat key = value parameter file")
        commands[name].set_defaults(func=func)
    commands["verify"].add_argument("suite", choices=SUITES)
    commands["verify"].add_argument("--lambda-out", dest="lambda_out", help="sum-rule CSV path")
    commands["measure"].add_argument("what", choices=MEASURE_KINDS)
    return parser, options


def _glue_float_values(argv: list[str]) -> list[str]:
    """Write `--nu -1e3` as `--nu=-1e3`: argparse takes a negative number
    in exponent notation for an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--nu", "--mu"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    try:
        args = parse_run(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        text = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: {text}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
