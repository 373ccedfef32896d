"""The Markov generator of the two-component exclusion process.

Exchange rules on a bond (k, k+1):

    A0 -> 0A,  0B -> B0,  AB -> BA   with rate r
    0A -> A0,  B0 -> 0B,  BA -> AB   with rate l

with reflecting boundaries.  The generator is stored as the transition
matrix H with H[target, source] = -rate and the total exit rate on the
diagonal, so that probability vectors evolve as exp(-H t) and the
all-ones row vector annihilates H.

In exact mode the matrix entries are Laurent monomials in q: the time
scale w = sqrt(r*l) is factored out globally (exact H is H/w, with the
rates r -> q and l -> 1/q), which keeps the ring univariate.  Float mode
carries the physical rates r and l.

The full generator and a sector block are one gather over an occupation
table in basis order, `lattice.occupations` or `lattice.sector_occupations`.

The generator commutes with the mirror J of `lattice.mirror` (sites
reversed, A and B exchanged): J turns each right exchange A0, 0B, AB into
a right exchange.  So J maps sector (N, M) onto (M, N) and permutes the
full basis and every N = M sector.  A float matrix carries J's index
permutation of its basis as `SparseMatrix.mirror` (None on other
sectors, and on every exact matrix: only `dynamics.evolve` reads it).
In exact mode, and in float mode when the rates' sums are exact, the
matrix equals its relabelling by J; a float diagonal whose bond-by-bond
exit sums round by their order may miss it in the last bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import A, B, VACANT, Sector, encode, mirror, occupations, sector_occupations
from .qring import QINV, ZERO, LaurentPoly, Q
from .sparse import SparseMatrix


class Ring(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


# pairs (state_k, state_{k+1}) that exchange with the right/left rate
RIGHT_PAIRS = frozenset({(A, VACANT), (VACANT, B), (A, B)})
LEFT_PAIRS = frozenset({(VACANT, A), (B, VACANT), (B, A)})

EXACT_FULL_MAX_L = 3
FLOAT_FULL_MAX_L = 6


@dataclass(frozen=True)
class ModelParams:
    """Hopping rates r and l; q0 = sqrt(r/l) is derived."""

    L: int
    r: Fraction
    ell: Fraction

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        object.__setattr__(self, "r", Fraction(self.r))
        object.__setattr__(self, "ell", Fraction(self.ell))
        if self.r <= 0 or self.ell <= 0:
            raise ValueError("hopping is partially asymmetric: need r, l > 0")

    @classmethod
    def from_qw(cls, L: int, q, w=1) -> "ModelParams":
        q = Fraction(q)
        w = Fraction(w)
        if q <= 0 or w <= 0:
            raise ValueError("need q, w > 0")
        return cls(L, q * w, w / q)

    @property
    def q0(self) -> float:
        return math.sqrt(float(self.r / self.ell))


def rate_table(p: ModelParams, ring: Ring) -> tuple:
    """The exchange rule as a table of bond rates, [state_k][state_k+1].

    RIGHT_PAIRS exchange at r and LEFT_PAIRS at l, all other pairs never.
    Exact mode factors out the time scale w, so the rates become the
    symbols q and 1/q.  Rows and columns follow the state encoding
    A=0, vacancy=1, B=2.
    """
    if ring is Ring.EXACT:
        right, left, zero = Q, QINV, ZERO
    else:
        right, left, zero = float(p.r), float(p.ell), 0.0
    return tuple(
        tuple(
            right if (s1, s2) in RIGHT_PAIRS else left if (s1, s2) in LEFT_PAIRS else zero
            for s2 in (A, VACANT, B)
        )
        for s1 in (A, VACANT, B)
    )


def _rate_arrays(p: ModelParams, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """`rate_table` as (half-exponent, coefficient) arrays indexed [s1, s2]:
    the exact rates are the monomials q, 1/q and 0; float rates keep h = 0."""
    table = rate_table(p, ring)
    if ring is Ring.FLOAT:
        return np.zeros((3, 3), np.int64), np.array(table, dtype=np.float64)
    terms = np.array(
        [[next(iter(v.terms.items()), (0, 0)) for v in row] for row in table],
        dtype=np.int64,
    )
    return terms[..., 0], terms[..., 1]


def _gather(p: ModelParams, ring: Ring, rows: np.ndarray) -> SparseMatrix:
    """The generator on the basis of occupation `rows`, given in basis order.

    One masked gather per bond: the rows that exchange on bond (k, k+1),
    site k at position pos, jump to the row of basis index theirs plus
    2 (s_k - s_k+1) 3^pos, ranked by `np.searchsorted` on the rows' indices.
    A float diagonal adds the exit rates bond by bond from the left, the
    same sum in the same order as a loop over one configuration's bonds.
    A float matrix carries the basis's `lattice.mirror` (None on a table
    not closed under it), for `dynamics.evolve`; an exact one carries
    None.
    """
    h3, c3 = _rate_arrays(p, ring)
    codes = encode(rows)
    dim = len(rows)
    exit_rate = np.zeros(dim, dtype=c3.dtype)
    terms = []
    for pos in range(rows.shape[1] - 1):  # the bond at positions pos, pos + 1
        s1, s2 = rows[:, pos], rows[:, pos + 1]
        src = np.flatnonzero(c3[s1, s2])
        a, b = s1[src], s2[src]
        h, rate = h3[a, b], c3[a, b]
        shift = (a.astype(np.int64) - b) * (2 * 3**pos)
        tgt = np.searchsorted(codes, codes[src] + shift)
        terms.append((tgt, src, h, -rate))
        if ring is Ring.EXACT:
            terms.append((src, src, h, rate))
        else:
            exit_rate[src] += rate
    j = None
    if ring is Ring.FLOAT:
        every = np.arange(dim)
        terms.append((every, every, np.zeros(dim, np.int64), exit_rate))
        j = mirror(rows)
    arrays = (np.concatenate(t) for t in zip(*terms))
    return SparseMatrix.from_arrays(dim, *arrays, mirror=j)


def build_H(p: ModelParams, ring: Ring = Ring.EXACT) -> SparseMatrix:
    """Generator on the full ternary basis of dimension 3^(2L)."""
    cap = EXACT_FULL_MAX_L if ring is Ring.EXACT else FLOAT_FULL_MAX_L
    if p.L > cap:
        raise ValueError(
            f"full basis capped at L <= {cap} in {ring.value} mode; "
            "use build_H_sector beyond"
        )
    return _gather(p, ring, occupations(p.L))


def build_H_sector(p: ModelParams, sector: Sector, ring: Ring = Ring.EXACT) -> SparseMatrix:
    """Generator restricted to a particle-number sector, on its basis
    `lattice.sector_occupations(sector)`."""
    if sector.L != p.L:
        raise ValueError("sector and parameters disagree on L")
    return _gather(p, ring, sector_occupations(sector))


@lru_cache(maxsize=None)
def h_exact(L: int) -> SparseMatrix:
    """Cached full exact generator (independent of the rates)."""
    return build_H(ModelParams(L, Fraction(2), Fraction(1, 2)), Ring.EXACT)


def _format_value(v) -> str:
    return str(v) if isinstance(v, LaurentPoly) else repr(float(v))


def dump_matrix(op: SparseMatrix, fh, p: ModelParams, sector: Sector | None = None) -> None:
    """Write `row col value` lines, column-compressed order, after a header.

    Header: `dim basis L N M r ell`, where basis is `full` or `sector` and
    N M are the sector's particle numbers, dashed out on the full basis.
    Exact values are serialised Laurent polynomials; float values use
    shortest round-trip decimals.
    """
    kind, n, m = ("full", "-", "-") if sector is None else ("sector", sector.N, sector.M)
    fh.write(f"{op.dim} {kind} {p.L} {n} {m} {p.r} {p.ell}\n")
    for (r, c), v in op.sorted_items():
        fh.write(f"{r} {c} {_format_value(v)}\n")
