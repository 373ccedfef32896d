"""The deformed gl(3) symmetry of the generator on the ternary chain.

The nine fundamental 3x3 matrices (two ladder pairs a+-, b+-, their
composites c+-, and the diagonal projectors onto A / vacancy / B) are
embedded site-by-site into the 3^(2L)-dimensional chain.  The global
ladder operators Y_i^± carry a site-dependent diagonal q-dressing that
makes them commute with the generator; together with the diagonal
operators L_i = q^(-T_i/2) built from the species-number counters they
satisfy the quadratic and cubic relations of the q-deformed enveloping
algebra, and all of that is checked here as identically-zero sparse
matrices over the exact ring.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import (
    A,
    B,
    VACANT,
    SiteOutOfRange,
    all_configs,
    sites,
    ternary_digits,
)
from .qring import LaurentPoly, exact_div, q_number
from .reporting import Report, matrices_equal, matrix_is_zero
from .sparse import SparseMatrix, commutator

# Fundamental 3x3 matrices in the basis order (A, vacancy, B).
# a+ turns a vacancy into an A particle, a- removes an A, b+/b- do the
# same for B, and c+- exchange A <-> B directly.
A_PLUS = ((0, 1, 0), (0, 0, 0), (0, 0, 0))
A_MINUS = ((0, 0, 0), (1, 0, 0), (0, 0, 0))
B_PLUS = ((0, 0, 0), (0, 0, 0), (0, 1, 0))
B_MINUS = ((0, 0, 0), (0, 0, 1), (0, 0, 0))
C_PLUS = ((0, 0, 1), (0, 0, 0), (0, 0, 0))
C_MINUS = ((0, 0, 0), (0, 0, 0), (1, 0, 0))
PROJ_A = ((1, 0, 0), (0, 0, 0), (0, 0, 0))
PROJ_V = ((0, 0, 0), (0, 1, 0), (0, 0, 0))
PROJ_B = ((0, 0, 0), (0, 0, 0), (0, 0, 1))
IDENT3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

LADDERS = {
    "a+": A_PLUS,
    "a-": A_MINUS,
    "b+": B_PLUS,
    "b-": B_MINUS,
    "c+": C_PLUS,
    "c-": C_MINUS,
}
PROJECTORS = {"A": PROJ_A, "V": PROJ_V, "B": PROJ_B}


def mat3_mul(u, v):
    return tuple(
        tuple(sum(u[i][k] * v[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat3_transpose(u):
    return tuple(tuple(u[j][i] for j in range(3)) for i in range(3))


def site_embed(u, k: int, L: int) -> SparseMatrix:
    """Act with the 3x3 matrix u on the site-k tensor factor.

    Entries of u may be ints, Fractions, or Laurent polynomials; the
    result always carries exact ring entries.  Operators embedded at
    different sites commute.
    """
    if not -L + 1 <= k <= L:
        raise SiteOutOfRange(f"site {k} outside lattice")
    dim = 3 ** (2 * L)
    step = 3 ** (k + L - 1)
    cells = [
        (rs, cs, v if isinstance(v, LaurentPoly) else LaurentPoly.const(v))
        for rs in range(3)
        for cs in range(3)
        if (v := u[rs][cs])
    ]
    entries: dict = {}
    for i in range(dim):
        d = (i // step) % 3
        for rs, cs, v in cells:
            if cs == d:
                j = i + (rs - d) * step
                entries[(j, i)] = entries.get((j, i), LaurentPoly.zero()) + v
    return SparseMatrix(dim, entries)


# (local op, dressing species, sign of the left sum) for each ladder:
# the diagonal factor is q**(sign * (count left of k - count right of k))
# of the dressing species, which never involves site k itself.
_Y_RECIPE = {
    (1, +1): (A_PLUS, VACANT, +1),
    (1, -1): (A_MINUS, A, -1),
    (2, +1): (B_MINUS, B, +1),
    (2, -1): (B_PLUS, VACANT, -1),
}


def build_Y_site(i: int, sign: int, k: int, L: int) -> SparseMatrix:
    """Single-site term of the dressed ladder operator Y_i^sign."""
    op, species, left_sign = _Y_RECIPE[(i, sign)]
    if not -L + 1 <= k <= L:
        raise SiteOutOfRange(f"site {k} outside lattice")
    n_sites = 2 * L
    dim = 3**n_sites
    pos = k + L - 1
    step = 3**pos
    (rs, cs) = next(
        (r, c) for r in range(3) for c in range(3) if op[r][c]
    )
    entries: dict = {}
    for i0 in range(dim):
        d = ternary_digits(i0, n_sites)
        if d[pos] != cs:
            continue
        left = sum(1 for p in range(pos) if d[p] == species)
        right = sum(1 for p in range(pos + 1, n_sites) if d[p] == species)
        exponent = left_sign * (left - right)
        j0 = i0 + (rs - cs) * step
        entries[(j0, i0)] = LaurentPoly.q_power(exponent)
    return SparseMatrix(dim, entries)


@lru_cache(maxsize=None)
def build_Y(i: int, sign: int, L: int) -> SparseMatrix:
    """Global ladder operator Y_i^sign = sum over sites of the dressed terms."""
    if i not in (1, 2) or sign not in (1, -1):
        raise ValueError("ladder label must be i in {1,2}, sign in {+1,-1}")
    if L > 3:
        raise ValueError("exact ladder operators are capped at L <= 3")
    out = SparseMatrix(3 ** (2 * L), {})
    for k in sites(L):
        out = out + build_Y_site(i, sign, k, L)
    return out


@lru_cache(maxsize=None)
def species_counts(L: int) -> tuple[tuple[int, ...], ...]:
    """(T1, T2, T3): the numbers of A, vacancies and B in each basis state."""
    n_sites = 2 * L
    digits = [ternary_digits(i0, n_sites) for i0 in range(3**n_sites)]
    return tuple(tuple(d.count(s) for d in digits) for s in (A, VACANT, B))


def h_diag(i: int, L: int) -> tuple[int, ...]:
    """Eigenvalues of H_i = T_i - T_(i+1) on the basis states, i in {1, 2}."""
    counts = species_counts(L)
    return tuple(a - b for a, b in zip(counts[i - 1], counts[i]))


def l_op(i: int, L: int, power: int = 1) -> SparseMatrix:
    """L_i**power = q**(-power * T_i / 2) as a diagonal monomial matrix."""
    return SparseMatrix.diagonal(
        [LaurentPoly.q_half_power(-power * t) for t in species_counts(L)[i - 1]]
    )


def symmetry_operators(L: int) -> list[tuple[str, SparseMatrix]]:
    """The four dressed ladders and the three diagonal L_i, by name."""
    ladders = [
        (f"Y{i}{'+' if s > 0 else '-'}", build_Y(i, s, L))
        for i in (1, 2)
        for s in (+1, -1)
    ]
    return ladders + [(f"L{i}", l_op(i, L)) for i in (1, 2, 3)]


def check_symmetry(H: SparseMatrix, L: int) -> Report:
    """Commutators of the generator with every symmetry generator.

    All four dressed ladders and the three diagonal half-power operators
    must commute with H identically in the ring.
    """
    report = Report()
    for name, op in symmetry_operators(L):
        matrix_is_zero(report, f"L{L}:commutator-H-{name}", commutator(H, op))
    return report


_SIGN_TAG = {1: "p", -1: "m"}


def check_algebra_relations(L: int) -> Report:
    """Defining relations of the deformed algebra on the chain.

    Checked exactly: commuting diagonals, the diagonal/ladder exchange
    with its q**(+-1/2) factor, the ladder commutators against both the
    half-power form and the per-eigenvalue q-integer diagonal, and the
    quadratic and cubic Serre relations.
    """
    if L > 2:
        raise ValueError("algebra relation checks are capped at L <= 2")
    report = Report()
    ls = {i: l_op(i, L) for i in (1, 2, 3)}
    ys = {
        (i, s): build_Y(i, s, L) for i in (1, 2) for s in (+1, -1)
    }

    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            matrix_is_zero(
                report, f"L{L}:cartan-commute-L{i}L{j}", commutator(ls[i], ls[j])
            )

    # L_i Y_j^s = q^(s*(delta_{i,j+1} - delta_{i,j})/2) Y_j^s L_i
    for i in (1, 2, 3):
        for j in (1, 2):
            for s in (+1, -1):
                half = s * ((1 if i == j + 1 else 0) - (1 if i == j else 0))
                factor = LaurentPoly.q_half_power(half)
                lhs = ls[i] @ ys[(j, s)]
                rhs = (ys[(j, s)] @ ls[i]).scale(factor)
                matrices_equal(
                    report, f"L{L}:cartan-ladder-exchange-L{i}-Y{j}{_SIGN_TAG[s]}", lhs, rhs
                )

    # [Y_i^+, Y_j^-] = delta_ij * (K^2 - K^-2)/(q - q^-1), K = L_{i+1} L_i^-1
    q_minus_qinv = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    for i in (1, 2):
        for j in (1, 2):
            comm = commutator(ys[(i, +1)], ys[(j, -1)])
            if i != j:
                matrix_is_zero(report, f"L{L}:ladder-commutator-Y{i}p-Y{j}m", comm)
                continue
            k2 = l_op(i + 1, L, 2) @ l_op(i, L, -2)
            k2inv = l_op(i + 1, L, -2) @ l_op(i, L, 2)
            rhs = (k2 - k2inv).map_entries(lambda v: exact_div(v, q_minus_qinv))
            matrices_equal(report, f"L{L}:ladder-commutator-Y{i}p-Y{i}m", comm, rhs)
            matrices_equal(
                report,
                f"L{L}:cartan-qnumber-consistency-H{i}",
                rhs,
                SparseMatrix.diagonal([q_number(h) for h in h_diag(i, L)]),
            )

    two_q = q_number(2)
    for i, j in ((1, 1), (2, 2)):
        for s in (+1, -1):
            matrix_is_zero(
                report,
                f"L{L}:serre-quadratic-Y{i}{_SIGN_TAG[s]}",
                commutator(ys[(i, s)], ys[(j, s)]),
            )
    for i, j in ((1, 2), (2, 1)):
        for s in (+1, -1):
            yi, yj = ys[(i, s)], ys[(j, s)]
            yii = yi @ yi
            cubic = yii @ yj - (yi @ yj @ yi).scale(two_q) + yj @ yii
            matrix_is_zero(
                report, f"L{L}:serre-cubic-Y{i}{_SIGN_TAG[s]}-Y{j}{_SIGN_TAG[s]}", cubic
            )
    return report


# Expected single-site multiplication tables: op @ projector keeps the op
# iff the projector matches its source state; projector @ op keeps it iff
# it matches the target state.
_SOURCE = {"a+": "V", "a-": "A", "b+": "V", "b-": "B", "c+": "B", "c-": "A"}
_TARGET = {"a+": "A", "a-": "V", "b+": "B", "b-": "V", "c+": "A", "c-": "B"}


def _p_power(projector, value: LaurentPoly):
    """value**projector = 1 + (value - 1)*projector for a 3x3 projector."""
    out = [[LaurentPoly.const(IDENT3[r][c]) for c in range(3)] for r in range(3)]
    for r in range(3):
        for c in range(3):
            if projector[r][c]:
                out[r][c] = out[r][c] + (value - 1)
    return tuple(tuple(row) for row in out)


def check_conjugation_lemma(L: int) -> Report:
    """Projector-exponential conjugation of the ladder operators.

    At the 3x3 level: the full product tables between ladders and
    projectors, the composite factorisations c+ = a+ b- and c- = b+ a-,
    transposition (a+-)^T = a-+, and the projector-sum resolution of the
    identity.  On the chain: conjugating a site-x ladder by q**(P_l) is
    the identity for l != x and multiplies by q**(+-1) for l = x, and the
    two-site projector products conjugate to the stated diagonal factors.
    """
    if L > 2:
        raise ValueError("conjugation checks are capped at L <= 2")
    report = Report()

    zero3 = ((0, 0, 0),) * 3
    bad = []
    for op_name, op in LADDERS.items():
        for proj_name, proj in PROJECTORS.items():
            want_right = op if _SOURCE[op_name] == proj_name else zero3
            if mat3_mul(op, proj) != want_right:
                bad.append((op_name, proj_name, "right"))
            want_left = op if _TARGET[op_name] == proj_name else zero3
            if mat3_mul(proj, op) != want_left:
                bad.append((op_name, proj_name, "left"))
    report.check("fundamental-products-table", bad)

    factorizations = (("c+", A_PLUS, B_MINUS, C_PLUS), ("c-", B_PLUS, A_MINUS, C_MINUS))
    report.check(
        "fundamental-c-factorization",
        [name for name, u, v, c in factorizations if mat3_mul(u, v) != c],
    )
    report.check(
        "fundamental-transpose",
        [sp for sp in "abc" if mat3_transpose(LADDERS[f"{sp}+"]) != LADDERS[f"{sp}-"]],
    )
    total = tuple(
        tuple(PROJ_A[r][c] + PROJ_V[r][c] + PROJ_B[r][c] for c in range(3))
        for r in range(3)
    )
    report.check("fundamental-projector-sum", [] if total == IDENT3 else [total])

    q = LaurentPoly.q_power(1)
    qinv = LaurentPoly.q_power(-1)
    bad = []
    for name, proj in PROJECTORS.items():
        if mat3_mul(proj, proj) != proj:
            bad.append((name, "idempotent"))
        ident = tuple(tuple(LaurentPoly.const(v) for v in row) for row in IDENT3)
        prod = mat3_mul(_p_power(proj, q), _p_power(proj, qinv))
        if prod != ident:
            bad.append((name, "exponential-inverse"))
    report.check("projector-exponential", bad)

    dim = 3 ** (2 * L)
    ident = SparseMatrix.identity(dim)
    proj_of = {A: PROJ_A, B: PROJ_B}
    ladder_of = {
        (A, +1): A_PLUS,
        (A, -1): A_MINUS,
        (B, +1): B_PLUS,
        (B, -1): B_MINUS,
    }
    species_tag = {A: "a", B: "b"}
    other = {A: B, B: A}

    def embedded_power(proj3, l, value):
        return site_embed(_p_power(proj3, value), l, L)

    for sp in (A, B):
        for s in (+1, -1):
            same_bad, cross_bad = [], []
            for l in sites(L):
                p_same = embedded_power(proj_of[sp], l, q)
                p_same_inv = embedded_power(proj_of[sp], l, qinv)
                p_cross = embedded_power(proj_of[other[sp]], l, q)
                p_cross_inv = embedded_power(proj_of[other[sp]], l, qinv)
                for x in sites(L):
                    op = site_embed(ladder_of[(sp, s)], x, L)
                    factor = LaurentPoly.q_power(s if l == x else 0)
                    if (p_same @ op @ p_same_inv) != op.scale(factor):
                        same_bad.append((l, x))
                    if (p_cross @ op @ p_cross_inv) != op:
                        cross_bad.append((l, x))
            tag = f"{species_tag[sp]}{_SIGN_TAG[s]}"
            report.check(f"L{L}:conjugation-single-{tag}", same_bad)
            report.check(f"L{L}:conjugation-single-cross-{tag}", cross_bad)

    # two-site projector product P = proj_A(l) proj_B(m): conjugation of a
    # ladder at x by q**P picks up q**(+-delta) times the *other* projector
    for sp in (A, B):
        for s in (+1, -1):
            bad = []
            for l in sites(L):
                for m in sites(L):
                    pa = site_embed(PROJ_A, l, L)
                    pb = site_embed(PROJ_B, m, L)
                    prod = pa @ pb
                    p_pow = ident + prod.scale(q - 1)
                    p_pow_inv = ident + prod.scale(qinv - 1)
                    for x in sites(L):
                        op = site_embed(ladder_of[(sp, s)], x, L)
                        if sp == A:
                            delta = 1 if l == x else 0
                            spectator = pb
                        else:
                            delta = 1 if m == x else 0
                            spectator = pa
                        factor = LaurentPoly.q_power(s * delta)
                        rhs = (
                            ident + spectator.scale(factor - 1)
                        ) @ op
                        if (p_pow @ op @ p_pow_inv) != rhs:
                            bad.append((l, m, x))
            report.check(f"L{L}:conjugation-product-{species_tag[sp]}{_SIGN_TAG[s]}", bad)

    # occupation projectors act diagonally with the local occupation numbers
    bad = []
    for k in sites(L):
        pa = site_embed(PROJ_A, k, L)
        pb = site_embed(PROJ_B, k, L)
        for c in all_configs(L):
            i = c.ternary_index() - 1
            va = pa.get(i, i)
            vb = pb.get(i, i)
            if (LaurentPoly.const(c.a(k)) != (va or LaurentPoly.zero())) or (
                LaurentPoly.const(c.b(k)) != (vb or LaurentPoly.zero())
            ):
                bad.append((k, c.text()))
        if not pa.is_diagonal() or not pb.is_diagonal():
            bad.append((k, "not diagonal"))
    report.check(f"L{L}:projector-eigenvalue", bad)

    # embedded operators at distinct sites commute
    bad = []
    site_list = list(sites(L))
    names = list(LADDERS)
    for idx_k, k in enumerate(site_list):
        for l in site_list[idx_k + 1 :]:
            for u_name in names:
                for v_name in names:
                    u = site_embed(LADDERS[u_name], k, L)
                    v = site_embed(LADDERS[v_name], l, L)
                    if not commutator(u, v).is_zero():
                        bad.append((u_name, k, v_name, l))
    report.check(f"L{L}:embed-commute", bad)
    return report
