"""Configurations of the two-species exclusion lattice.

The lattice is {-L+1, ..., L} with an even number 2L of sites (odd sizes
are rejected by construction since L is integer).  Each site holds one
of three states: an A particle, a vacancy, or a B particle.  Site labels
k are used throughout the public surface because all measure and
duality exponents carry (2k-1) weights; the 0-based array position is
private.

The text form of a configuration is a string over {A, 0, B} read
left-to-right from site -L+1, e.g. "A0B0".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .qring import LaurentPoly, q_factorial
from .reporting import Report

# Local states, in ternary order: the encoding A=0, vacancy=1, B=2 fixes
# the basis ordering of every matrix in the package.
A = 0
VACANT = 1
B = 2

_STATES = (A, VACANT, B)
_CHAR_OF = {A: "A", VACANT: "0", B: "B"}
_STATE_OF = {"A": A, "0": VACANT, "B": B}


class SiteOutOfRange(ValueError):
    pass


class BondOutOfRange(ValueError):
    pass


class OverlappingCoordinates(ValueError):
    pass


def sites(L: int) -> range:
    """All site labels -L+1, ..., L."""
    return range(-L + 1, L + 1)


def bonds(L: int) -> range:
    """Left sites k of the bonds (k, k+1)."""
    return range(-L + 1, L)


def theta(k: int, l: int) -> int:
    """Step function: 1 iff k < l."""
    return 1 if k < l else 0


@dataclass(frozen=True)
class Config:
    """Occupation-variable form of a configuration."""

    L: int
    occ: tuple[int, ...]

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if not isinstance(self.occ, tuple):
            object.__setattr__(self, "occ", tuple(self.occ))
        if len(self.occ) != 2 * self.L:
            raise ValueError(f"expected {2 * self.L} sites, got {len(self.occ)}")
        if any(s not in _STATES for s in self.occ):
            raise ValueError(f"invalid state in {self.occ}")

    def _pos(self, k: int) -> int:
        if not -self.L + 1 <= k <= self.L:
            raise SiteOutOfRange(f"site {k} outside lattice of size 2L={2 * self.L}")
        return k + self.L - 1

    def state(self, k: int) -> int:
        return self.occ[self._pos(k)]

    def a(self, k: int) -> int:
        return 1 if self.state(k) == A else 0

    def v(self, k: int) -> int:
        return 1 if self.state(k) == VACANT else 0

    def b(self, k: int) -> int:
        return 1 if self.state(k) == B else 0

    @property
    def N(self) -> int:
        return self.occ.count(A)

    @property
    def M(self) -> int:
        return self.occ.count(B)

    @property
    def V(self) -> int:
        return self.occ.count(VACANT)

    def ternary_index(self) -> int:
        """1-based basis index; site -L+1 is the least significant digit."""
        return 1 + sum(s * 3**i for i, s in enumerate(self.occ))

    def swap(self, k: int) -> "Config":
        """Exchange the occupations of sites k and k+1 (an involution)."""
        if not -self.L + 1 <= k <= self.L - 1:
            raise BondOutOfRange(f"bond ({k},{k + 1}) outside lattice")
        i = self._pos(k)
        occ = list(self.occ)
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
        return Config(self.L, tuple(occ))

    def with_state(self, k: int, state: int) -> "Config":
        occ = list(self.occ)
        occ[self._pos(k)] = state
        return Config(self.L, tuple(occ))

    def to_positions(self) -> "Positions":
        x = tuple(k for k in sites(self.L) if self.state(k) == A)
        y = tuple(k for k in sites(self.L) if self.state(k) == B)
        return Positions(self.L, x, y)

    def text(self) -> str:
        return "".join(_CHAR_OF[s] for s in self.occ)

    @classmethod
    def from_text(cls, text: str) -> "Config":
        if len(text) % 2 or not text:
            raise ValueError("configuration strings have an even, positive length")
        try:
            occ = tuple(_STATE_OF[ch] for ch in text)
        except KeyError as exc:
            raise ValueError(f"invalid state character in {text!r}") from exc
        return cls(len(text) // 2, occ)

    def __str__(self) -> str:
        return self.text()


@dataclass(frozen=True)
class Positions:
    """Position form z = (x, y): sites of the A and B particles.

    Coordinates are canonicalised (sorted) on construction; repeated or
    overlapping coordinates raise OverlappingCoordinates.
    """

    L: int
    x: tuple[int, ...] = ()
    y: tuple[int, ...] = ()

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        x = tuple(sorted(self.x))
        y = tuple(sorted(self.y))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        for c in (*x, *y):
            if not -self.L + 1 <= c <= self.L:
                raise SiteOutOfRange(f"coordinate {c} outside lattice")
        if len(set(x)) != len(x) or len(set(y)) != len(y) or set(x) & set(y):
            raise OverlappingCoordinates(f"coordinates overlap in x={x}, y={y}")

    @property
    def N(self) -> int:
        return len(self.x)

    @property
    def M(self) -> int:
        return len(self.y)

    def to_config(self) -> Config:
        occ = [VACANT] * (2 * self.L)
        for c in self.x:
            occ[c + self.L - 1] = A
        for c in self.y:
            occ[c + self.L - 1] = B
        return Config(self.L, tuple(occ))


@dataclass(frozen=True)
class Sector:
    """Particle-number sector: N particles of type A, M of type B."""

    L: int
    N: int
    M: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if self.N < 0 or self.M < 0 or self.N + self.M > 2 * self.L:
            raise ValueError(f"invalid sector N={self.N}, M={self.M}, 2L={2 * self.L}")

    @property
    def size(self) -> int:
        return comb(2 * self.L, self.N) * comb(2 * self.L - self.N, self.M)


def ternary_digits(index0: int, n_sites: int) -> tuple[int, ...]:
    """Site states of the 0-based basis index, least significant site first."""
    digits = []
    for _ in range(n_sites):
        digits.append(index0 % 3)
        index0 //= 3
    return tuple(digits)


def config_from_ternary(index: int, L: int) -> Config:
    """Inverse of Config.ternary_index (1-based)."""
    if not 1 <= index <= 3 ** (2 * L):
        raise ValueError(f"index {index} outside 1..3^{2 * L}")
    return Config(L, ternary_digits(index - 1, 2 * L))


def all_configs(L: int) -> list[Config]:
    """All 3^(2L) configurations in ternary order."""
    return [config_from_ternary(i, L) for i in range(1, 3 ** (2 * L) + 1)]


def vacant_config(L: int) -> Config:
    return Config(L, (VACANT,) * (2 * L))


def enumerate_sector(sector: Sector) -> list[Config]:
    """All configurations in the sector, sorted by ternary index."""
    lam = list(sites(sector.L))
    out = []
    for xs in itertools.combinations(lam, sector.N):
        rest = [k for k in lam if k not in xs]
        for ys in itertools.combinations(rest, sector.M):
            out.append(Positions(sector.L, xs, ys).to_config())
    out.sort(key=Config.ternary_index)
    return out


def count_left(z: Positions, k: int, species: int) -> int:
    """Number of particles of the given species strictly left of site k."""
    if not -z.L + 1 <= k <= z.L:
        raise SiteOutOfRange(f"site {k} outside lattice")
    coords = z.x if species == A else z.y if species == B else None
    if coords is None:
        raise ValueError("species must be A or B")
    return sum(1 for c in coords if c < k)


def centered_count(z: Positions, k: int, species: int) -> int:
    """Centred left-count: twice the left count minus the species total."""
    total = z.N if species == A else z.M
    return 2 * count_left(z, k, species) - total


def weyl_alcove(n: int, L: int):
    """Strictly increasing n-tuples of sites, in lexicographic order."""
    return itertools.combinations(sites(L), n)


# ---------------------------------------------------------------------
# Exhaustive verification of the counting and permutation identities the
# weight/duality computations rest on.
# ---------------------------------------------------------------------


def check_counting_lemmas(l_max: int) -> Report:
    """Step-function identities and additivity/inversion of left counts.

    Exhausts every pair of disjoint coordinate sets on lattices of sizes
    2..2*l_max, for both species.  Returns the first counterexample on
    failure; there is none if the implementation is sound.
    """
    if not 1 <= l_max <= 3:
        raise ValueError("counting lemmas are desk-scale: need 1 <= l_max <= 3")
    report = Report()
    for L in range(1, l_max + 1):
        lam = list(sites(L))

        bad = [
            (k, l)
            for k in lam
            for l in lam
            if theta(k, l) + theta(l, k) + (1 if k == l else 0) != 1
        ]
        report.check(f"L{L}:theta-complement", bad)

        bad = []
        for r in lam:
            for x in lam:
                if sum(1 for k in lam if k < x and k == r) != theta(r, x):
                    bad.append((r, x, "left"))
                if sum(1 for k in lam if k > x and k == r) != theta(x, r):
                    bad.append((r, x, "right"))
        report.check(f"L{L}:theta-delta-sum", bad)

        # single-particle left counts reduce to the step function
        bad = []
        for x in lam:
            z = Positions(L, x=(x,))
            zb = Positions(L, y=(x,))
            for r in lam:
                if count_left(z, r, A) != theta(x, r):
                    bad.append((x, r, "A"))
                if count_left(zb, r, B) != theta(x, r):
                    bad.append((x, r, "B"))
        report.check(f"L{L}:single-left-count", bad)

        for species, tag in ((A, "A"), (B, "B")):
            def pos(coords):
                return (
                    Positions(L, x=coords) if species == A else Positions(L, y=coords)
                )

            add_bad, comp_bad, inv_bad, single_bad = [], [], [], []
            for assign in itertools.product((0, 1, 2), repeat=2 * L):
                first = tuple(k for k, w in zip(lam, assign) if w == 1)
                second = tuple(k for k, w in zip(lam, assign) if w == 2)
                union = pos(tuple(sorted(first + second)))
                zf, zs = pos(first), pos(second)
                n_second = len(second)
                for k in lam:
                    if count_left(union, k, species) != count_left(
                        zf, k, species
                    ) + count_left(zs, k, species):
                        add_bad.append((first, second, k))
                    if count_left(zf, k, species) != sum(
                        count_left(pos((c,)), k, species) for c in first
                    ):
                        single_bad.append((first, k))
                    if k in second:
                        continue
                    # complement form: counts of the added set via step functions
                    if count_left(union, k, species) != count_left(
                        zf, k, species
                    ) + n_second - sum(theta(k, c) for c in second):
                        comp_bad.append((first, second, k))
                    # inversion: left counts of a set from single-site counts
                    if count_left(zs, k, species) != n_second - sum(
                        count_left(pos((k,)), c, species) for c in second
                    ):
                        inv_bad.append((second, k))
            report.check(f"L{L}:left-count-union-additivity-{tag}", add_bad)
            report.check(f"L{L}:left-count-single-additivity-{tag}", single_bad)
            report.check(f"L{L}:left-count-union-complement-{tag}", comp_bad)
            report.check(f"L{L}:left-count-inversion-{tag}", inv_bad)
    return report


def _inversion_weight(r: tuple[int, ...], perm: tuple[int, ...]) -> int:
    n = len(r)
    s = 0
    for j in range(n):
        for i in range(j):
            s += theta(r[perm[i]], r[perm[j]])
    return s


def check_permutation_identities(n_max: int, l_max: int) -> Report:
    """Symmetric-group identities behind the divided-power row actions.

    First: summing q**(-2*noninversions + n(n-1)/2) over the symmetric
    group gives the q-factorial times an ordering monomial, for every
    strictly increasing coordinate tuple.  Second: a sum over ordered
    tuples equals the alcove-plus-permutations sum for functions that
    vanish on diagonals.
    """
    if not 1 <= n_max <= 4 or not 1 <= l_max <= 3:
        raise ValueError("desk scale: need n_max <= 4 and l_max <= 3")
    report = Report()
    for L in range(1, l_max + 1):
        lam = list(sites(L))
        for n in range(1, min(n_max, 2 * L) + 1):
            perms = list(itertools.permutations(range(n)))
            bad = []
            for r in weyl_alcove(n, L):
                lhs = LaurentPoly.zero()
                for perm in perms:
                    h = -2 * _inversion_weight(r, perm) + n * (n - 1) // 2
                    lhs = lhs + LaurentPoly.q_power(h)
                order = sum(theta(r[j], r[i]) for j in range(n) for i in range(j))
                rhs = q_factorial(n) * LaurentPoly.q_power(-2 * order)
                if lhs != rhs:
                    bad.append((r, str(lhs - rhs)))
            report.check(f"L{L}:qfactorial-inversion-sum-n{n}", bad)

            def vandermonde(r):
                out = LaurentPoly.one()
                for i in range(len(r)):
                    for j in range(i + 1, len(r)):
                        out = out * (
                            LaurentPoly.q_power(r[j]) - LaurentPoly.q_power(r[i])
                        )
                return out

            def weighted_gap(r):
                gap = 1
                for i in range(len(r)):
                    for j in range(i + 1, len(r)):
                        gap *= r[j] - r[i]
                return LaurentPoly.const(gap) * LaurentPoly.q_power(
                    sum((i + 1) * c for i, c in enumerate(r))
                )

            bad = []
            for fname, f in (("vandermonde", vandermonde), ("gap", weighted_gap)):
                full = LaurentPoly.zero()
                for r in itertools.product(lam, repeat=n):
                    full = full + f(r)
                folded = LaurentPoly.zero()
                for r in weyl_alcove(n, L):
                    for perm in perms:
                        folded = folded + f(tuple(r[p] for p in perm))
                if full != folded:
                    bad.append((fname, str(full - folded)))
            report.check(f"L{L}:diagonal-vanishing-symmetrization-n{n}", bad)
    return report
