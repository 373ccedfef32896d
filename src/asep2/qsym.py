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

The conjugation lemma needs no matrix product on the chain: q**(P) for
a diagonal projector P is the diagonal q**(P(i)), so conjugating an
embedded ladder by it multiplies entry (r, c) by q**(P(r) - P(c)), an
exponent shift read off rows r and c of the occupation table.  Each
embedded ladder gets one table of these shifts, for the single-site
projectors at every site and their two-site products at every pair, and
one array comparison checks all of them.

Embedded operators are built as term arrays from the occupation table:
`site_embed` moves every configuration with a given state at site k at
once, and a ladder's dressing is one half-exponent per basis state, from
`lattice.left_counts` of the basis table, the package's one left count.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .generator import EXACT_FULL_MAX_L
from .lattice import (
    A,
    B,
    VACANT,
    SiteOutOfRange,
    _first,
    all_configs,
    left_counts,
    occupations,
    sites,
)
from .qring import ONE, LaurentPoly, q_number
from .reporting import Report, matrices_equal, matrix_is_zero
from .sparse import (
    SparseMatrix,
    blocks,
    commutator,
    direct_sum,
    matrix_sum,
    product_difference,
)

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


def mat3_mul(u, v):
    return tuple(
        tuple(sum(u[i][k] * v[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def mat3_transpose(u):
    return tuple(tuple(u[j][i] for j in range(3)) for i in range(3))


def site_embed(u, k: int, L: int, dressing=None) -> SparseMatrix:
    """Act with the 3x3 matrix u on the site-k tensor factor.

    Entries of u may be ints or Laurent polynomials; the result always
    carries exact ring entries.  Each entry in column c is multiplied by
    q**(dressing[c]/2), dressing an int array of half-exponents over the
    basis (None: no dressing).  Operators embedded at different sites
    commute.
    """
    if not -L + 1 <= k <= L:
        raise SiteOutOfRange(f"site {k} outside lattice")
    pos = k + L - 1
    state = occupations(L)[:, pos]
    if dressing is None:
        dressing = np.zeros(len(state), np.int64)
    terms = [(np.zeros(0, np.int64),) * 4]
    for cs in range(3):
        cols = np.flatnonzero(state == cs)
        for rs in range(3):
            if not u[rs][cs]:
                continue
            # the column's configurations with site k turned from cs to rs
            rows = cols + (rs - cs) * 3**pos
            for h, x in (ONE * u[rs][cs]).terms.items():
                terms.append((rows, cols, dressing[cols] + h, np.full(len(cols), x)))
    arrays = (np.concatenate(t) for t in zip(*terms))
    return SparseMatrix.from_arrays(len(state), *arrays)


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
    pos = k + L - 1
    held = occupations(L) == species
    left = left_counts(occupations(L), species)[:, pos]
    right = held.sum(axis=1) - left - held[:, pos]
    return site_embed(op, k, L, 2 * left_sign * (left - right))


@lru_cache(maxsize=None)
def build_Y(i: int, sign: int, L: int) -> SparseMatrix:
    """Global ladder operator Y_i^sign = sum over sites of the dressed terms."""
    if i not in (1, 2) or sign not in (1, -1):
        raise ValueError("ladder label must be i in {1,2}, sign in {+1,-1}")
    if L > EXACT_FULL_MAX_L:
        raise ValueError(f"exact ladder operators are capped at L <= {EXACT_FULL_MAX_L}")
    return matrix_sum(3 ** (2 * L), (build_Y_site(i, sign, k, L) for k in sites(L)))


@lru_cache(maxsize=None)
def species_counts(L: int) -> tuple[tuple[int, ...], ...]:
    """(T1, T2, T3): the numbers of A, vacancies and B in each basis state."""
    occ = occupations(L)
    return tuple(tuple((occ == s).sum(axis=1).tolist()) for s in (A, VACANT, B))


def h_diag(i: int, L: int) -> tuple[int, ...]:
    """Eigenvalues of H_i = T_i - T_(i+1) on the basis states, i in {1, 2}."""
    counts = species_counts(L)
    return tuple(a - b for a, b in zip(counts[i - 1], counts[i]))


def l_op(i: int, L: int, power: int = 1) -> SparseMatrix:
    """L_i**power = q**(-power * T_i / 2) as a diagonal monomial matrix."""
    return SparseMatrix.monomial_diagonal(-power * np.array(species_counts(L)[i - 1]))


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


def _zero_blocks(report: Report, names: list[str], batch: SparseMatrix) -> None:
    """One zero check per name, in order, on the equal diagonal blocks of a
    batched residual."""
    for name, block in zip(names, blocks(batch, batch.dim // len(names))):
        matrix_is_zero(report, name, block)


def check_algebra_relations(L: int) -> Report:
    """Defining relations of the deformed algebra on the chain.

    Checked exactly: commuting diagonals, the diagonal/ladder exchange
    with its q**(+-1/2) factor, the ladder commutators against both the
    half-power form and the per-eigenvalue q-integer diagonal, and the
    quadratic and cubic Serre relations.

    `cartan-commute-*` (two diagonal matrices) and `serre-quadratic-*` ([Y, Y]
    of one ladder) are structural: they hold for any diagonal matrices and any
    single ladder, so no operator fault can fail them.

    Each family of same-shaped relations is one kernel pass over direct
    sums (`sparse.direct_sum`): block k of the batched residual is
    relation k's residual in the same normal form, and is checked alone.
    """
    report = Report()
    dim = 3 ** (2 * L)
    ls = {i: l_op(i, L) for i in (1, 2, 3)}
    ys = {
        (i, s): build_Y(i, s, L) for i in (1, 2) for s in (+1, -1)
    }

    pairs = [(i, j) for i in (1, 2, 3) for j in range(i + 1, 4)]
    _zero_blocks(
        report,
        [f"L{L}:cartan-commute-L{i}L{j}" for i, j in pairs],
        commutator(direct_sum(ls[i] for i, _ in pairs), direct_sum(ls[j] for _, j in pairs)),
    )

    # L_i Y_j^s = q^(half/2) Y_j^s L_i, half = s*(delta_{i,j+1} - delta_{i,j}),
    # with the factor taken into the diagonal: q^(half/2) L_i = q^((half - T_i)/2)
    exchange = [(i, j, s) for i in (1, 2, 3) for j in (1, 2) for s in (+1, -1)]
    counts = np.array(species_counts(L))
    ladders = direct_sum(ys[(j, s)] for _i, j, s in exchange)
    factored = [s * ((i == j + 1) - (i == j)) - counts[i - 1] for i, j, s in exchange]
    _zero_blocks(
        report,
        [f"L{L}:cartan-ladder-exchange-L{i}-Y{j}{_SIGN_TAG[s]}" for i, j, s in exchange],
        product_difference(
            direct_sum(ls[i] for i, _j, _s in exchange),
            ladders,
            ladders,
            SparseMatrix.monomial_diagonal(np.concatenate(factored)),
        ),
    )

    # [Y_i^+, Y_j^-] = delta_ij * (K^2 - K^-2)/(q - q^-1), K = L_{i+1} L_i^-1
    q_minus_qinv = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    ij = [(i, j) for i in (1, 2) for j in (1, 2)]
    comms = blocks(
        commutator(direct_sum(ys[(i, +1)] for i, _ in ij), direct_sum(ys[(j, -1)] for _, j in ij)),
        dim,
    )
    # K^2 - K^-2 for i = 1, 2
    k2_minus_k2inv = product_difference(
        direct_sum(l_op(i + 1, L, 2) for i in (1, 2)),
        direct_sum(l_op(i, L, -2) for i in (1, 2)),
        direct_sum(l_op(i + 1, L, -2) for i in (1, 2)),
        direct_sum(l_op(i, L, 2) for i in (1, 2)),
    )
    rhs = blocks(k2_minus_k2inv.exact_quotient(q_minus_qinv), dim)
    for (i, j), comm in zip(ij, comms):
        if i != j:
            matrix_is_zero(report, f"L{L}:ladder-commutator-Y{i}p-Y{j}m", comm)
            continue
        matrices_equal(report, f"L{L}:ladder-commutator-Y{i}p-Y{i}m", comm, rhs[i - 1])
        matrices_equal(
            report,
            f"L{L}:cartan-qnumber-consistency-H{i}",
            rhs[i - 1],
            SparseMatrix.diagonal([q_number(h) for h in h_diag(i, L)]),
        )

    quadratic = [(i, s) for i in (1, 2) for s in (+1, -1)]
    quadratic_ladders = direct_sum(ys[key] for key in quadratic)
    _zero_blocks(
        report,
        [f"L{L}:serre-quadratic-Y{i}{_SIGN_TAG[s]}" for i, s in quadratic],
        commutator(quadratic_ladders, quadratic_ladders),
    )

    # yi yi yj - [2] yi yj yi + yj yi yi, the four relations' products
    # held at once
    cubic = [(i, j, s) for i, j in ((1, 2), (2, 1)) for s in (+1, -1)]
    yi = direct_sum(ys[(i, s)] for i, _j, s in cubic)
    yj = direct_sum(ys[(j, s)] for _i, j, s in cubic)
    yii = yi @ yi
    _zero_blocks(
        report,
        [f"L{L}:serre-cubic-Y{i}{_SIGN_TAG[s]}-Y{j}{_SIGN_TAG[s]}" for i, j, s in cubic],
        product_difference(yii, yj, yi @ yj, yi.scale(q_number(2))) + yj @ yii,
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


def _ladders() -> dict:
    """The six ladders by name, read at call time, so that a substituted
    matrix reaches every check."""
    return {"a+": A_PLUS, "a-": A_MINUS, "b+": B_PLUS, "b-": B_MINUS, "c+": C_PLUS, "c-": C_MINUS}


def check_fundamental_matrices() -> Report:
    """The 3x3 relations the conjugation lemma rests on.

    The full product tables between ladders and projectors, the composite
    factorisations c+ = a+ b- and c- = b+ a-, transposition
    (a+-)^T = a-+, the projector-sum resolution of the identity, and the
    projector exponential: each projector is idempotent and
    q**(P) q**(-P) = 1.  None of them depends on the lattice size.
    """
    report = Report()
    ladders = _ladders()
    projectors = {"A": PROJ_A, "V": PROJ_V, "B": PROJ_B}

    zero3 = ((0, 0, 0),) * 3
    bad = []
    for op_name, op in ladders.items():
        for proj_name, proj in projectors.items():
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
        [sp for sp in "abc" if mat3_transpose(ladders[f"{sp}+"]) != ladders[f"{sp}-"]],
    )
    total = tuple(
        tuple(PROJ_A[r][c] + PROJ_V[r][c] + PROJ_B[r][c] for c in range(3))
        for r in range(3)
    )
    report.check("fundamental-projector-sum", [] if total == IDENT3 else [total])

    q = LaurentPoly.q_power(1)
    qinv = LaurentPoly.q_power(-1)
    bad = []
    for name, proj in projectors.items():
        if mat3_mul(proj, proj) != proj:
            bad.append((name, "idempotent"))
        ident = tuple(tuple(LaurentPoly.const(v) for v in row) for row in IDENT3)
        prod = mat3_mul(_p_power(proj, q), _p_power(proj, qinv))
        if prod != ident:
            bad.append((name, "exponential-inverse"))
    report.check("projector-exponential", bad)
    return report


def check_conjugation_lemma(L: int) -> Report:
    """Projector-exponential conjugation of the ladder operators on the chain.

    Conjugating a site-x ladder by q**(P_l) is the identity for l != x and
    multiplies by q**(+-1) for l = x, and the two-site projector products
    conjugate to the stated diagonal factors.

    The conjugations are evaluated as exponent shifts: each stored entry
    (r, c) of an embedded ladder must have P(r) - P(c) equal to the
    exponent of its factor, with P read from the basis table.  Each
    embedded ladder (name, x) gets one table: the differences between rows
    r and c of the A and B indicators at every site and of their pairwise
    products, compared in one array pass with the expected shift for
    every l, or every (l, m).  A FAIL names the first counterexample in
    (l, x) or (l, m, x) order.  The 3x3 projector exponential
    (`check_fundamental_matrices`) and the chain-level projector-eigenvalue
    check verify that q**(P) is that diagonal.  Each ladder is embedded
    once per site, and embed-commute reuses those embeddings.
    """
    report = Report()
    ladders = _ladders()
    embedded = {
        (name, x): site_embed(u, x, L) for name, u in ladders.items() for x in sites(L)
    }
    occ = occupations(L)
    lam = list(sites(L))
    # held[i, sp, k]: basis state i holds an A (sp = 0) or a B (sp = 1) at
    # position k; pairs[i, l, m]: it holds an A at l and a B at m
    held = np.stack([occ == A, occ == B], axis=1).astype(np.int8)
    pairs = held[:, 0, :, None] * held[:, 1, None, :]
    at = np.eye(len(lam), dtype=np.int8)  # at[x]: the indicator of position x

    # one table per embedding (name, x): its entries' P(r) - P(c) for every
    # single and product projector, against q**(s * delta) for its own
    # species at x and, for proj_A(l) proj_B(m), that times the *other*
    # projector at r; single[sp, l, x] and product[l, m, x] mark failures
    chain_ladders = (("a+", 0, +1), ("a-", 0, -1), ("b+", 1, +1), ("b-", 1, -1))
    singles, products = [], []
    for name, sp, s in chain_ladders:
        single = np.zeros((2, len(lam), len(lam)), bool)
        product = np.zeros((len(lam),) * 3, bool)
        for x, site in enumerate(lam):
            op = embedded[(name, site)]
            want = np.zeros((len(op.row), 2, len(lam)), np.int8)
            want[:, sp] = s * at[x]
            single[..., x] = (held[op.row] - held[op.col] != want).any(axis=0)
            other = s * held[op.row, 1 - sp]
            want = at[x][:, None] * other[:, None, :] if sp == 0 else other[:, :, None] * at[x]
            product[..., x] = (pairs[op.row] - pairs[op.col] != want).any(axis=0)
        tag = name[0] + _SIGN_TAG[s]
        singles += [(f"single-{tag}", single[sp]), (f"single-cross-{tag}", single[1 - sp])]
        products.append((f"product-{tag}", product))
    for relation, bad in singles + products:
        report.check(
            f"L{L}:conjugation-{relation}", _first(bad, lambda *i: tuple(lam[k] for k in i))
        )

    # occupation projectors act diagonally with the local occupation numbers:
    # a configuration is bad where the residual against that diagonal has a
    # diagonal term; every (site, species) is one block of one residual
    dim = len(occ)
    site_species = [(k, species) for k in sites(L) for species in (A, B)]
    embedded_projectors = [
        site_embed(PROJ_A if species == A else PROJ_B, k, L) for k, species in site_species
    ]
    # held in (site, species, state) order, the order of site_species' blocks
    on = np.flatnonzero(held.transpose(2, 1, 0))
    eigen = SparseMatrix.from_arrays(
        dim * len(site_species), on, on, np.zeros_like(on), np.ones_like(on)
    )
    residuals = blocks(direct_sum(embedded_projectors) - eigen, dim)
    bad = []
    for n, k in enumerate(sites(L)):
        wrong = set()
        for residual in residuals[2 * n : 2 * n + 2]:
            wrong.update(residual.row[residual.row == residual.col].tolist())
        bad.extend((k, all_configs(L)[i].text()) for i in sorted(wrong))
        if not all(proj.is_diagonal() for proj in embedded_projectors[2 * n : 2 * n + 2]):
            bad.append((k, "not diagonal"))
    report.check(f"L{L}:projector-eigenvalue", bad)

    # embedded operators at distinct sites commute: the 36 ladder pairs of
    # each pair of sites are one commutator of direct sums
    bad = []
    names = [(u_name, v_name) for u_name in ladders for v_name in ladders]
    for idx_k, k in enumerate(lam):
        for l in lam[idx_k + 1 :]:
            comms = blocks(
                commutator(
                    direct_sum(embedded[(u_name, k)] for u_name, _ in names),
                    direct_sum(embedded[(v_name, l)] for _, v_name in names),
                ),
                dim,
            )
            bad.extend(
                (u_name, k, v_name, l)
                for (u_name, v_name), comm in zip(names, comms)
                if not comm.is_zero()
            )
    report.check(f"L{L}:embed-commute", bad)
    return report
