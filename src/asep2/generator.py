"""The Markov generator of the two-component exclusion process.

Order the states A = 0 < vacancy = 1 < B = 2.  On each bond (k, k+1) the
lower state moves right at rate r and the higher one left at rate l, so
the pair (s_k, s_k+1) exchanges at the rate of sign(s_k+1 - s_k)
(`BOND_SIGN`, with the rates of `rate_by_sign`): +1 at r (A0, 0B, AB),
-1 at l (0A, B0, BA), 0 never.  Boundaries reflect.  The generator is
stored as the transition matrix H with H[target, source] = -rate and the
total exit rate on the diagonal, so that probability vectors evolve as
exp(-H t) and the all-ones row vector annihilates H.

In exact mode the matrix entries are Laurent monomials in q: the time
scale w = sqrt(r*l) is factored out globally (exact H is H/w, with the
rates r -> q and l -> 1/q), which keeps the ring univariate.  Float mode
carries the physical rates r and l.

The full generator and a sector block are one gather over an occupation
table in basis order, `lattice.occupations` or `lattice.sector_occupations`.

The mirror J of `lattice.mirror` (sites reversed, A and B exchanged)
keeps the sign of every bond.  So it maps each exchange onto one at the
same rate, and a row's counts n_right and n_left of +1 and -1 bonds, whose
exit rate is n_right r + n_left l, onto its image's: every matrix equals
its relabelling by J exactly, in both rings and at any rates.  J maps
sector (N, M) onto (M, N) and permutes the full basis and every N = M
sector.  A float matrix carries J's index permutation of its basis as
`SparseMatrix.mirror` (None on other sectors, and on every exact matrix:
only `dynamics.evolve` reads it).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import A, B, VACANT, Sector, encode, mirror, occupations, sector_occupations
from .qring import LaurentPoly
from .sparse import SparseMatrix


class Ring(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


# the exchange rule, [s_k, s_k+1] = sign(s_k+1 - s_k) over the states
# A < vacancy < B: +1 exchanges at the right rate, -1 at the left, 0 never
_STATES = np.array([A, VACANT, B])
BOND_SIGN = np.sign(_STATES - _STATES[:, None]).astype(np.int8)
BOND_SIGN.setflags(write=False)

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


def rate_by_sign(p: ModelParams, ring: Ring) -> tuple[np.ndarray, np.ndarray]:
    """The rate of a bond by its `BOND_SIGN`, as (half-exponent,
    coefficient) arrays indexed by the sign itself: [1] right, [-1] left,
    [0] no exchange.  Exact mode factors out the time scale w, so the
    rates are the monomials q and 1/q; float rates are r and l, h = 0."""
    if ring is Ring.EXACT:
        return np.array([0, 2, -2]), np.array([0, 1, 1])
    return np.zeros(3, np.int64), np.array([0.0, float(p.r), float(p.ell)])


def _gather(p: ModelParams, ring: Ring, rows: np.ndarray) -> SparseMatrix:
    """The generator on the basis of occupation `rows`, given in basis order.

    One gather over every (row, bond) sign: a row whose bond (k, k+1),
    site k at position pos, has a nonzero sign jumps to the row of basis
    index theirs minus 2 (s_k+1 - s_k) 3^pos, ranked by `np.searchsorted`
    on the rows' indices.  A row with n_right bonds of sign +1 and n_left
    of sign -1 exits at n_right r + n_left l (q and 1/q in exact mode),
    two terms of the diagonal.  A float matrix carries the basis's
    `lattice.mirror` (None on a table not closed under it), for
    `dynamics.evolve`; an exact one carries None.
    """
    h, c = rate_by_sign(p, ring)
    codes = encode(rows)
    dim, width = rows.shape
    cols = np.ascontiguousarray(rows.T)  # bond by bond: runs that `_reduce` sorts fast
    sign = BOND_SIGN.ravel().take(3 * cols[:-1] + cols[1:])  # at [3 s_k + s_k+1]
    move = np.flatnonzero(sign)
    pos, src = np.divmod(move, dim)
    s = sign.ravel()[move]
    step = cols.ravel()[move + dim] - cols.ravel()[move]  # s_k+1 - s_k
    tgt = np.searchsorted(codes, codes[src] - (2 * 3 ** np.arange(width - 1)).take(pos) * step)
    every = np.arange(dim)
    terms = [(tgt, src, h[s], -c[s])] + [
        (every, every, np.full(dim, h[k]), np.bincount(src[s == k], minlength=dim) * c[k])
        for k in (1, -1)
    ]
    arrays = (np.concatenate(t) for t in zip(*terms))
    j = mirror(rows) if ring is Ring.FLOAT else None
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
