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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .lattice import (
    A,
    B,
    VACANT,
    Config,
    Sector,
    all_configs,
    bonds,
    enumerate_sector,
)
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
    """Hopping rates; q = sqrt(r/l) and w = sqrt(r*l) are derived."""

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

    @property
    def w0(self) -> float:
        return math.sqrt(float(self.r * self.ell))


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


def _bond_rates(table, c: Config) -> list:
    """(bond k, rate) for every bond of c that exchanges at a nonzero rate."""
    return [
        (k, rate)
        for k, s1, s2 in zip(bonds(c.L), c.occ, c.occ[1:])
        if (rate := table[s1][s2])
    ]


def _accumulate(H: dict, src: int, tgt: int, rate) -> None:
    H[(tgt, src)] = H.get((tgt, src), rate * 0) - rate
    H[(src, src)] = H.get((src, src), rate * 0) + rate


def build_H(p: ModelParams, ring: Ring = Ring.EXACT) -> SparseMatrix:
    """Generator on the full ternary basis of dimension 3^(2L)."""
    cap = EXACT_FULL_MAX_L if ring is Ring.EXACT else FLOAT_FULL_MAX_L
    if p.L > cap:
        raise ValueError(
            f"full basis capped at L <= {cap} in {ring.value} mode; "
            "use build_H_sector beyond"
        )
    table = rate_table(p, ring)
    entries: dict = {}
    for c in all_configs(p.L):
        src = c.ternary_index() - 1
        for k, rate in _bond_rates(table, c):
            tgt = c.swap(k).ternary_index() - 1
            _accumulate(entries, src, tgt, rate)
    return SparseMatrix(3 ** (2 * p.L), entries)


def build_H_sector(p: ModelParams, sector: Sector, ring: Ring = Ring.EXACT) -> SparseMatrix:
    """Generator restricted to a particle-number sector basis."""
    if sector.L != p.L:
        raise ValueError("sector and parameters disagree on L")
    configs = enumerate_sector(sector)
    index = {c: i for i, c in enumerate(configs)}
    table = rate_table(p, ring)
    entries: dict = {}
    for c in configs:
        src = index[c]
        for k, rate in _bond_rates(table, c):
            tgt = index[c.swap(k)]  # exchanges conserve (N, M)
            _accumulate(entries, src, tgt, rate)
    return SparseMatrix(len(configs), entries)


def apply_generator(f, c: Config, p: ModelParams, ring: Ring = Ring.FLOAT):
    """Generator applied to an observable: sum of rate * (f(swapped) - f(c)).

    Agrees entrywise with -(H^T f) for the matching matrix; in exact mode
    the rates are the w-scaled symbols q and 1/q.
    """
    total = ZERO if ring is Ring.EXACT else 0.0
    for k, rate in _bond_rates(rate_table(p, ring), c):
        total = total + rate * (f(c.swap(k)) - f(c))
    return total


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
