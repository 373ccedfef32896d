"""Self-duality machinery: duality functions, the symmetry operator, and
the intertwining duality matrix.

A dual coordinate set z is a configuration of the same lattice, given
as an occupation row; its duality weight against a configuration is a
product of one-site factors, each a q-power of the particle counts on
either side of the coordinate times a projector that kills mismatched
sites.  Dividing by the reversible weight of z gives a family of
functions D with D H = H^T D exactly.  `q_exponents` gives the exponent
of Q_z(eta) on given rows of z and eta, `q_values` its float value;
`duality_products` builds every nonzero Q_z(eta) exactly from the
sub-configuration pairs alone, while `rows-S-vs-Qhat` reads its brute
force from `q_exponents` over every pair.  Both take eta's left counts
from `lattice.left_counts`, the package's one left count.

The same matrix arises a second, independent way: the exponential-free
symmetry operator S (a double sum of divided powers of two dressed
ladder operators) satisfies [S, H] = 0, its vacuum row is the summation
vector, and pre-multiplying by the inverse reversible diagonal
reproduces D entrywise.  Both constructions are built here and compared.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .lattice import A, B, VACANT, encode, left_counts, occupations, sectors, vacant_config
from .measures import pi_hat, q_powers
from .qring import ZERO, LaurentPoly, q_factorial, q_multinomial
from .reporting import Report, matrices_equal, matrix_is_zero
from .sparse import SparseMatrix, commutator, matrix_sum, product_difference
from .qsym import build_Y
from .generator import EXACT_FULL_MAX_L, h_exact


class NotConstant(ArithmeticError):
    """A sum-rule value depended on the configuration it must not depend on."""


# ---------------------------------------------------------------------
# duality functions
# ---------------------------------------------------------------------


def q_exponents(z_rows, eta_rows) -> tuple[np.ndarray, np.ndarray]:
    """The q-exponent of Q_z(eta) as an int64 [z, eta] array, from int8
    occupation rows, and the mask of the pairs where Q_z(eta) != 0.

    Each A of z adds eta's A count left of its site minus the count right
    of it, and each B of z the reverse; the left counts are
    `lattice.left_counts` of eta's rows.  The projectors are a mismatch
    count: Q_z(eta) = 0 where z holds a particle that eta does not hold at
    that site.  Both counts are float matrix products of exact small
    integers.
    """
    z_rows, eta_rows = np.asarray(z_rows), np.asarray(eta_rows)
    exponent = np.zeros((len(z_rows), len(eta_rows)))
    mismatch = np.zeros_like(exponent)
    for species, sign in ((A, 1), (B, -1)):
        held = eta_rows == species
        left = left_counts(eta_rows, species)
        # left - right, with right = total - left - 1 (the particle at the site)
        factor = sign * (2 * left + 1 - held.sum(axis=1, keepdims=True))
        in_z = (z_rows == species).astype(np.float64)
        exponent += in_z @ factor.T.astype(np.float64)
        mismatch += in_z @ (~held).T.astype(np.float64)
    return exponent.astype(np.int64), mismatch == 0


def q_values(z_rows, eta_rows, q0: float) -> np.ndarray:
    """Q_z(eta) in floats as a [z, eta] array, from int8 occupation rows:
    `q_exponents` evaluated by `measures.q_powers`."""
    exponent, keep = q_exponents(z_rows, eta_rows)
    out = np.zeros(exponent.shape)
    out[keep] = q_powers(exponent[keep], q0)
    return out


# the states (z, eta) a site takes when z is a sub-configuration of eta:
# (A, A), (0, A), (0, 0), (0, B), (B, B)
_PAIR_Z = np.array([A, VACANT, VACANT, VACANT, B], dtype=np.int8)
_PAIR_ETA = np.array([A, A, VACANT, B, B], dtype=np.int8)


@lru_cache(maxsize=None)
def duality_products(L: int) -> SparseMatrix:
    """Q[z, eta] = Q_z(eta): rows dual coordinates, columns configurations.

    Q_z(eta) vanishes unless z is a sub-configuration of eta, so only
    those 5^(2L) pairs are built, one base-5 digit per site over the pair
    states above; eta's left counts are read at its basis index from
    `lattice.left_counts` of the basis, so no 5^(2L)-row count is formed.
    """
    n = 2 * L
    pairs = np.indices((5,) * n, dtype=np.int8).reshape(n, -1).T
    z, eta = _PAIR_Z[pairs], _PAIR_ETA[pairs]
    col = encode(eta)
    e = np.zeros(len(col), dtype=np.int64)
    for species, sign in ((A, 1), (B, -1)):
        table = left_counts(occupations(L), species)
        total = (eta == species).sum(axis=1)
        for i in range(n):
            # z's particle at position i adds sign * (left - right) of it in eta
            held = z[:, i] == species
            e[held] += sign * (2 * table[col[held], i] + 1 - total[held])
    return SparseMatrix.from_arrays(3**n, encode(z), col, 2 * e, np.ones(len(col), np.int64))


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
        return [p.exact_quotient(q_factorial(n)) for n, p in enumerate(powers)]

    d1 = divided_powers(build_Y(1, -1, L))
    d2 = divided_powers(build_Y(2, +1, L))
    return {(s.N, s.M): d1[s.N] @ d2[s.M] for s in sectors(L)}


@lru_cache(maxsize=None)
def build_S(L: int) -> SparseMatrix:
    """Double sum of divided powers of the two sector-shifting ladders."""
    if L > EXACT_FULL_MAX_L:
        raise ValueError(f"symmetry operator capped at L <= {EXACT_FULL_MAX_L}")
    return matrix_sum(3 ** (2 * L), divided_power_terms(L).values())


@lru_cache(maxsize=None)
def duality_closed_form(L: int) -> SparseMatrix:
    """Duality matrix from the duality functions: row z of Q times q^(-pi(z)).

    Entries vanish unless the dual sector fits inside the configuration's
    sector.
    """
    return pi_hat(L, -1) @ duality_products(L)


@lru_cache(maxsize=None)
def duality_from_symmetry(L: int) -> SparseMatrix:
    """The same matrix as the inverse reversible diagonal times S."""
    return pi_hat(L, -1) @ build_S(L)


# ---------------------------------------------------------------------
# sum rule
# ---------------------------------------------------------------------


def sum_rule_table(L: int) -> list[tuple[int, int, int, int, LaurentPoly]]:
    """Sum-rule constants lambda for every ordered pair of sectors.

    For a source sector s and a target sector t, the left side
    Z_t / (pi(z) Z_s) * sum over eta in s of pi(eta) Q_z(eta) must not
    depend on z in t, the right side sum over z in t of Q_z(eta) must not
    depend on eta in s, and the two must agree; lambda is their common
    value.

    Sector k, in (N, M) order, stands in row and column k of two 0/1
    matrices: member[eta, k] maps eta to its sector and first[k, eta]
    picks the sector's first eta.  With left = D pi_hat member ([z, s])
    and right = Q^T member ([eta, t]), a side is constant on sectors iff
    side - member (first side) is zero, lambda is first right, and the
    sides agree iff (first left)^T Z - Z lambda is zero, Z the diagonal
    of the partition functions.  A violation raises NotConstant naming
    the side, the source and target sectors and the residual (it would
    falsify the identity, so it is surfaced, never masked).
    """
    occ = occupations(L)
    dim = len(occ)
    # every sector holds a configuration, so the sorted keys are all of them
    keys, firsts, sector = np.unique(
        (occ == A).sum(axis=1) * dim + (occ == B).sum(axis=1),
        return_index=True,
        return_inverse=True,
    )
    spans = [divmod(int(key), dim) for key in keys]
    ones = np.ones(dim, np.int64)
    member = SparseMatrix.from_arrays(dim, np.arange(dim), sector, 0 * ones, ones)
    first = SparseMatrix.from_arrays(dim, np.arange(len(keys)), firsts, 0 * firsts, ones[firsts])

    def require_zero(side: str, residual: SparseMatrix, sectors) -> None:
        if not residual.is_zero():
            (r, c), value = residual.first_entry()
            s, t = sectors(r, c)
            raise NotConstant(f"{side}: source {spans[s]}, target {spans[t]}, residual {value}")

    left = duality_closed_form(L) @ pi_hat(L) @ member
    right = duality_products(L).transpose() @ member
    require_zero(
        "left side depends on z", left - member @ (first @ left), lambda z, s: (s, sector[z])
    )
    require_zero(
        "right side depends on eta",
        right - member @ (first @ right),
        lambda eta, t: (sector[eta], t),
    )
    lam = first @ right
    partition = SparseMatrix(
        dim, {(k, k): q_multinomial(2 * L, *span) for k, span in enumerate(spans)}
    )
    require_zero(
        "sides disagree",
        product_difference((first @ left).transpose(), partition, partition, lam),
        lambda s, t: (s, t),
    )
    values = dict(lam.sorted_items())
    return [
        (*source, *target, values.get((s, t), ZERO))
        for s, source in enumerate(spans)
        for t, target in enumerate(spans)
    ]


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
    report = Report()
    H = h_exact(L)
    D_closed = duality_closed_form(L)
    S = build_S(L)
    dim = 3 ** (2 * L)

    matrix_is_zero(
        report, f"L{L}:DH=HtD", product_difference(D_closed, H, H.transpose(), D_closed)
    )
    matrices_equal(
        report, f"L{L}:closed-form-vs-symmetry", D_closed, duality_from_symmetry(L)
    )
    matrix_is_zero(report, f"L{L}:commutator-S-H", commutator(S, H))
    matrix_is_zero(
        report,
        f"L{L}:commutator-Y1m-Y2p",
        commutator(build_Y(1, -1, L), build_Y(2, +1, L)),
    )

    # the vacuum row is one slice of S's sorted rows; an entry is 1 iff its
    # column holds one term and it is q^0, so a q^0 term scores 1, any other 2
    vacuum = vacant_config(L).index
    lo, hi = np.searchsorted(S.row, (vacuum, vacuum + 1))
    other = (S.h[lo:hi] != 0) | (S.coeff[lo:hi] != 1)
    score = np.bincount(S.col[lo:hi], 1 + other, minlength=dim)
    report.check(f"L{L}:S-vacuum-row", np.flatnonzero(score != 1)[:1].tolist())

    # Q_z(eta) by brute force over every pair: row z of S is Q_z
    occ = occupations(L)
    exponent, keep = q_exponents(occ, occ)
    z, eta = np.nonzero(keep)
    brute = SparseMatrix.from_arrays(dim, z, eta, 2 * exponent[keep], np.ones(len(z), np.int64))
    matrices_equal(report, f"L{L}:rows-S-vs-Qhat", S, brute)
    n_of, m_of = (occ == A).sum(axis=1), (occ == B).sum(axis=1)
    r, c = D_closed.row, D_closed.col
    outside = (n_of[r] > n_of[c]) | (m_of[r] > m_of[c])
    report.check(
        f"L{L}:sector-block-structure", list(zip(r[outside].tolist(), c[outside].tolist()))
    )
    _check_exclusion_cutoff(report, L)
    return report


def _check_exclusion_cutoff(report: Report, L: int) -> None:
    """Terms of the double divided-power sum die on saturated sectors."""
    occ = occupations(L)
    dim = len(occ)
    particles = (occ != VACANT).sum(axis=1)

    # the sector summation row vectors annihilate both ladders on full
    # sectors: row n of `summation` sums the full sector with n A's
    # (2L + 1 < dim rows), so row n of the product is its residual
    full = particles == 2 * L
    a_count = (occ == A).sum(axis=1)[full]
    cols = np.flatnonzero(full)
    summation = SparseMatrix.from_arrays(
        dim, a_count, cols, np.zeros_like(cols), np.ones_like(cols)
    )
    nonzero_rows = {
        name: set((summation @ y).row.tolist())
        for name, y in (("Y1-", build_Y(1, -1, L)), ("Y2+", build_Y(2, +1, L)))
    }
    bad = [(n, name) for n in range(2 * L + 1) for name in nonzero_rows if n in nonzero_rows[name]]
    report.check(f"L{L}:saturated-sector-annihilation", bad)

    bad = []
    for (n, m), term in divided_power_terms(L).items():
        rows = term.row[n + m > 2 * L - particles[term.row]]
        bad.extend((n, m, r) for r in rows.tolist())
    report.check(f"L{L}:divided-power-cutoff", bad)
