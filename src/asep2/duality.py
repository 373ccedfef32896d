"""Self-duality machinery: duality functions, the symmetry operator, and
the intertwining duality matrix.

A dual coordinate set z picks particle positions; its duality weight
against a configuration is a product of one-site factors, each a q-power
of the particle counts on either side of the coordinate times a
projector that kills mismatched sites.  Dividing by the reversible
weight of z gives a family of functions D with D H = H^T D exactly.

The same matrix arises a second, independent way: the exponential-free
symmetry operator S (a double sum of divided powers of two dressed
ladder operators) satisfies [S, H] = 0, its vacuum row is the summation
vector, and pre-multiplying by the inverse reversible diagonal
reproduces D entrywise.  Both constructions are built here and compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .lattice import (
    A,
    B,
    Config,
    Positions,
    Sector,
    all_configs,
    enumerate_sector,
    sites,
    vacant_config,
)
from .measures import pi_exponent, pi_exponent_positions, pi_unnormalized
from .qring import LaurentPoly, exact_div, q_factorial
from .reporting import Report, matrices_equal, matrix_is_zero
from .sparse import SparseMatrix, commutator
from .qsym import build_Y
from .generator import h_exact


class NotConstant(ArithmeticError):
    """A sum-rule value depended on the configuration it must not depend on."""


# ---------------------------------------------------------------------
# duality functions
# ---------------------------------------------------------------------


def qz_exponent(z: Positions, occ) -> int | None:
    """q-exponent of the product Q_z on an occupation sequence.

    An A at x contributes (A left of x) - (A right of x), a B at y
    (B right of y) - (B left of y).  None if a projector vanishes, i.e.
    some coordinate of z does not hold its species in occ.
    """
    e = 0
    for coords, species, sign in ((z.x, A, 1), (z.y, B, -1)):
        for site in coords:
            pos = site + z.L - 1
            if occ[pos] != species:
                return None
            e += sign * (occ[:pos].count(species) - occ[pos + 1 :].count(species))
    return e


def Qz(z: Positions, c: Config) -> LaurentPoly:
    e = qz_exponent(z, c.occ)
    return LaurentPoly.zero() if e is None else LaurentPoly.q_power(e)


def qz_value(z: Positions, occ, q0: float) -> float:
    """Numeric duality product for a raw occupation sequence on 2L sites."""
    e = qz_exponent(z, occ)
    return 0.0 if e is None else float(q0**e)


def duality_function(z: Positions, c: Config) -> LaurentPoly:
    """Self-duality function: inverse reversible weight of z times the product."""
    e = qz_exponent(z, c.occ)
    if e is None:
        return LaurentPoly.zero()
    return LaurentPoly.q_power(e - pi_exponent_positions(z))


def q_hat(z: Positions, L: int) -> SparseMatrix:
    """Diagonal operator form of the duality product (built lazily per z)."""
    return SparseMatrix.diagonal([Qz(z, c) for c in all_configs(L)])


# ---------------------------------------------------------------------
# tilde variants (sector-equivalent duality products)
# ---------------------------------------------------------------------


def tilde_qa(x: int, c: Config) -> LaurentPoly:
    """One-sided A factor q**(2 * left count); the one-species duality kernel."""
    if c.state(x) != A:
        return LaurentPoly.zero()
    left = sum(c.a(k) for k in sites(c.L) if k < x)
    return LaurentPoly.q_power(2 * left)


def tilde_qb(y: int, c: Config) -> LaurentPoly:
    if c.state(y) != B:
        return LaurentPoly.zero()
    left = sum(c.b(k) for k in sites(c.L) if k < y)
    return LaurentPoly.q_power(-2 * left)


def tilde_duality(z: Positions, c: Config) -> LaurentPoly:
    """Product of one-sided factors.

    On a fixed sector it differs from the two-sided product only by the
    constant q**(n*(N-1) - m*(M-1)) with n = N(z), m = M(z), so the two
    families generate the same sector-restricted dualities.
    """
    out = LaurentPoly.one()
    for x in z.x:
        out = out * tilde_qa(x, c)
        if not out:
            return out
    for y in z.y:
        out = out * tilde_qb(y, c)
        if not out:
            return out
    return out


# ---------------------------------------------------------------------
# symmetry operator and duality matrix
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def divided_power_terms(L: int) -> dict[tuple[int, int], SparseMatrix]:
    """Terms (Y1-)^(n) (Y2+)^(m) of S, keyed by (n, m) with n + m <= 2L.

    X^(n) is the divided power X**n / [n]!.  Divided powers are exact
    quotients by the q-factorials; a failed division would signal a
    representation bug and raises.
    """
    dim = 3 ** (2 * L)

    def divided_powers(y):
        powers = [SparseMatrix.identity(dim)]
        for n in range(1, 2 * L + 1):
            powers.append(powers[-1] @ y)
        return [
            p.map_entries(lambda v, f=q_factorial(n): exact_div(v, f))
            for n, p in enumerate(powers)
        ]

    d1 = divided_powers(build_Y(1, -1, L))
    d2 = divided_powers(build_Y(2, +1, L))
    return {
        (n, m): d1[n] @ d2[m] for n in range(2 * L + 1) for m in range(2 * L - n + 1)
    }


@lru_cache(maxsize=None)
def build_S(L: int) -> SparseMatrix:
    """Double sum of divided powers of the two sector-shifting ladders."""
    if L > 3:
        raise ValueError("symmetry operator capped at L <= 3 (slow beyond 2)")
    out = SparseMatrix(3 ** (2 * L), {})
    for term in divided_power_terms(L).values():
        out = out + term
    return out


@lru_cache(maxsize=None)
def duality_closed_form(L: int) -> SparseMatrix:
    """Duality matrix from the duality functions.

    Rows are dual coordinates, columns configurations; entries vanish
    unless the dual sector fits inside the configuration's sector.
    """
    entries: dict = {}
    for c in all_configs(L):
        col = c.ternary_index() - 1
        pos = c.to_positions()
        for nx in range(pos.N + 1):
            for xs in itertools.combinations(pos.x, nx):
                for my in range(pos.M + 1):
                    for ys in itertools.combinations(pos.y, my):
                        z = Positions(L, xs, ys)
                        row = z.to_config().ternary_index() - 1
                        entries[(row, col)] = duality_function(z, c)
    return SparseMatrix(3 ** (2 * L), entries)


@lru_cache(maxsize=None)
def duality_from_symmetry(L: int) -> SparseMatrix:
    """The same matrix as the inverse reversible diagonal times S."""
    inv_pi = SparseMatrix.diagonal(
        [LaurentPoly.q_power(-pi_exponent(c)) for c in all_configs(L)]
    )
    return inv_pi @ build_S(L)


# ---------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class SumRuleResult:
    lam: LaurentPoly
    report: Report


def sum_rule(sector_from: Sector, sector_to: Sector) -> SumRuleResult:
    """Both sides of the sum rule, each checked for constancy.

    The left side averages the duality product over the canonical measure
    of the source sector and strips the canonical weight of the target
    coordinate; the right side sums the product over all coordinate sets
    of the target sector.  Both are configuration-independent and equal;
    a violation raises NotConstant (it would falsify the identity, so it
    is surfaced, never masked).
    """
    if sector_from.L != sector_to.L:
        raise ValueError("sectors must share the lattice size")
    L = sector_from.L
    sources = enumerate_sector(sector_from)
    targets = enumerate_sector(sector_to)
    z_from = _sector_partition(sector_from)
    z_to = _sector_partition(sector_to)

    lhs_value = None
    for zc in targets:
        z = zc.to_positions()
        weighted = LaurentPoly.zero()
        for eta in sources:
            weighted = weighted + pi_unnormalized(eta) * Qz(z, eta)
        lhs = exact_div(weighted * z_to, pi_unnormalized(zc) * z_from)
        if lhs_value is None:
            lhs_value = lhs
        elif lhs != lhs_value:
            raise NotConstant(
                f"left side depends on z: {zc.text()} gives {lhs}, expected {lhs_value}"
            )

    rhs_value = None
    target_positions = [zc.to_positions() for zc in targets]
    for eta in sources:
        total = LaurentPoly.zero()
        for z in target_positions:
            total = total + Qz(z, eta)
        if rhs_value is None:
            rhs_value = total
        elif total != rhs_value:
            raise NotConstant(
                f"right side depends on eta: {eta.text()} gives {total}, "
                f"expected {rhs_value}"
            )

    if lhs_value != rhs_value:
        raise NotConstant(f"sides disagree: left {lhs_value}, right {rhs_value}")

    report = Report()
    report.check(
        f"L{L}:sum-rule-N{sector_from.N}M{sector_from.M}"
        f"-to-N{sector_to.N}M{sector_to.M}",
        [],
    )
    return SumRuleResult(lam=lhs_value, report=report)


def _sector_partition(sector: Sector) -> LaurentPoly:
    from .qring import q_multinomial

    return q_multinomial(2 * sector.L, sector.N, sector.M)


def sum_rule_table(L: int) -> list[tuple[int, int, int, int, LaurentPoly]]:
    """Sum-rule constants for every pair of sectors (for the CSV emitter)."""
    rows = []
    spans = [
        (n, m) for n in range(2 * L + 1) for m in range(2 * L - n + 1)
    ]
    for n, m in spans:
        for np_, mp_ in spans:
            res = sum_rule(Sector(L, n, m), Sector(L, np_, mp_))
            rows.append((n, m, np_, mp_, res.lam))
    return rows


def write_lambda_csv(fh, rows) -> None:
    fh.write("N,M,Nprime,Mprime,lambda_poly\n")
    for n, m, np_, mp_, lam in rows:
        fh.write(f"{n},{m},{np_},{mp_},{lam}\n")


def check_sum_rules(L: int) -> Report:
    """Constancy for all sector pairs plus the forced special values."""
    report = Report()
    try:
        rows = sum_rule_table(L)
    except NotConstant as exc:
        report.check(f"L{L}:sum-rule-constancy", [exc])
        return report
    report.check(f"L{L}:sum-rule-constancy", [])

    bad = [
        (n, m, np_, mp_)
        for n, m, np_, mp_, lam in rows
        if (np_ > n or mp_ > m) and lam
    ]
    report.check(f"L{L}:sum-rule-vanishing", bad)

    empty = next(lam for n, m, np_, mp_, lam in rows if (n, m, np_, mp_) == (0,) * 4)
    report.check(f"L{L}:sum-rule-empty-pair", [] if empty == 1 else [empty])
    return report


# ---------------------------------------------------------------------
# duality verification
# ---------------------------------------------------------------------


def check_duality(L: int) -> Report:
    """The full exact duality chain at one lattice size.

    Intertwining D H = H^T D, agreement of the closed form with the
    symmetry construction, row identity <z|S = <s|Q_z, the sector block
    structure, the vacuum row of S, commutation of S and of the two
    ladders it is built from, and the exclusion cutoff of the divided
    power expansion.
    """
    if L > 2:
        raise ValueError("duality checks are capped at L <= 2")
    report = Report()
    H = h_exact(L)
    D_closed = duality_closed_form(L)
    S = build_S(L)
    dim = 3 ** (2 * L)
    configs = all_configs(L)

    matrices_equal(report, f"L{L}:DH=HtD", D_closed @ H, H.transpose() @ D_closed)
    matrices_equal(
        report, f"L{L}:closed-form-vs-symmetry", D_closed, duality_from_symmetry(L)
    )
    matrix_is_zero(report, f"L{L}:commutator-S-H", commutator(S, H))
    matrix_is_zero(
        report,
        f"L{L}:commutator-Y1m-Y2p",
        commutator(build_Y(1, -1, L), build_Y(2, +1, L)),
    )

    vac_row = S.row(vacant_config(L).ternary_index() - 1)
    report.check(f"L{L}:S-vacuum-row", [c for c in range(dim) if vac_row.get(c) != 1])

    def qz_row(z: Positions) -> dict:
        return {
            c.ternary_index() - 1: LaurentPoly.q_power(e)
            for c in configs
            if (e := qz_exponent(z, c.occ)) is not None
        }

    report.check(
        f"L{L}:rows-S-vs-Qhat",
        [
            zc.text()
            for zc in configs
            if S.row(zc.ternary_index() - 1) != qz_row(zc.to_positions())
        ],
    )
    report.check(
        f"L{L}:sector-block-structure",
        [
            (r, c)
            for (r, c) in D_closed.entries
            if configs[r].N > configs[c].N or configs[r].M > configs[c].M
        ],
    )
    _check_exclusion_cutoff(report, L)
    return report


def _check_exclusion_cutoff(report: Report, L: int) -> None:
    """Terms of the double divided-power sum die on saturated sectors."""
    configs = all_configs(L)

    # the sector summation row vector annihilates both ladders on full sectors
    bad = []
    for n in range(2 * L + 1):
        full = enumerate_sector(Sector(L, n, 2 * L - n))
        rows = {c.ternary_index() - 1 for c in full}
        for name, y in (("Y1-", build_Y(1, -1, L)), ("Y2+", build_Y(2, +1, L))):
            col_sums: dict = {}
            for (r, c), v in y.entries.items():
                if r in rows:
                    col_sums[c] = col_sums.get(c, LaurentPoly.zero()) + v
            if any(col_sums.values()):
                bad.append((n, name))
    report.check(f"L{L}:saturated-sector-annihilation", bad)

    report.check(
        f"L{L}:divided-power-cutoff",
        [
            (n, m, r)
            for (n, m), term in divided_power_terms(L).items()
            for (r, _c) in term.entries
            if n + m > 2 * L - configs[r].N - configs[r].M
        ],
    )
