"""Configurations of the two-species exclusion lattice.

The lattice is {-L+1, ..., L} with an even number 2L of sites (odd sizes
are rejected by construction since L is integer).  Each site holds one
of three states: an A particle, a vacancy, or a B particle.  Site labels
k are used throughout the public surface because all measure and
duality exponents carry (2k-1) weights; the 0-based array position is
private.

The text form of a configuration is a string over {A, 0, B} read
left-to-right from site -L+1, e.g. "A0B0".

Every full-basis matrix in the package (generator, ladders, symmetry
operator, duality matrix) lives on the 3^(2L) configurations in ternary
order: the state of site -L+1 is the least significant digit.  There is
one encoder, `Config.index`, and one decoder, the table `all_configs(L)`,
built once per L, whose entry i is the configuration with index i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from operator import attrgetter

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
    """Occupation-variable form of a configuration.

    The same type serves as a dual coordinate set z = (x, y): `x` and `y`
    are the sorted sites of the A and B particles.
    """

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

    def b(self, k: int) -> int:
        return 1 if self.state(k) == B else 0

    @property
    def N(self) -> int:
        return self.occ.count(A)

    @property
    def M(self) -> int:
        return self.occ.count(B)

    @property
    def index(self) -> int:
        """Basis index, from 0; site -L+1 is the least significant digit.

        Recomputed on each read: hot loops read it once per Config, and a
        cached copy would cost memory on every configuration held.
        """
        index = 0
        for s in reversed(self.occ):
            index = 3 * index + s
        return index

    def swap(self, k: int) -> "Config":
        """Exchange the occupations of sites k and k+1 (an involution)."""
        if not -self.L + 1 <= k <= self.L - 1:
            raise BondOutOfRange(f"bond ({k},{k + 1}) outside lattice")
        i = self._pos(k)
        occ = list(self.occ)
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
        return Config(self.L, tuple(occ))

    @cached_property
    def x(self) -> tuple[int, ...]:
        return tuple(k for k, s in zip(sites(self.L), self.occ) if s == A)

    @cached_property
    def y(self) -> tuple[int, ...]:
        return tuple(k for k, s in zip(sites(self.L), self.occ) if s == B)

    @classmethod
    def from_coordinates(cls, L: int, x=(), y=()) -> "Config":
        """The configuration with A particles at sites x and B particles at y.

        A coordinate off the lattice raises SiteOutOfRange; a site named
        twice, in one tuple or in both, raises OverlappingCoordinates.
        """
        occ = [VACANT] * (2 * L)
        for coords, species in ((x, A), (y, B)):
            for c in coords:
                if not -L + 1 <= c <= L:
                    raise SiteOutOfRange(f"coordinate {c} outside lattice")
                if occ[c + L - 1] != VACANT:
                    raise OverlappingCoordinates(f"coordinates overlap in x={x}, y={y}")
                occ[c + L - 1] = species
        return cls(L, tuple(occ))

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


@lru_cache(maxsize=None)
def all_configs(L: int) -> tuple[Config, ...]:
    """The basis table: all 3^(2L) configurations, entry i of index i."""
    # product varies its last element fastest; reversed, that is site -L+1,
    # the least significant digit
    return tuple(
        Config(L, occ[::-1]) for occ in itertools.product(_STATES, repeat=2 * L)
    )


def vacant_config(L: int) -> Config:
    return Config(L, (VACANT,) * (2 * L))


def enumerate_sector(sector: Sector) -> list[Config]:
    """All configurations in the sector, sorted by basis index."""
    lam = list(sites(sector.L))
    out = []
    for xs in itertools.combinations(lam, sector.N):
        rest = [k for k in lam if k not in xs]
        for ys in itertools.combinations(rest, sector.M):
            out.append(Config.from_coordinates(sector.L, xs, ys))
    out.sort(key=attrgetter("index"))
    return out


def count_left(occ, k: int, species: int) -> int:
    """Number of sites strictly left of site k in the given state.

    occ is the occupation sequence of 2L sites: the `occ` of a Config
    (which also serves as a dual coordinate set) or a raw list.  species
    is A, VACANT or B.  This is the one left count: the duality exponent
    and the ladder dressing derive their right counts from it as the
    species total minus the left count minus the site's own particle.
    """
    L = len(occ) // 2
    if not -L + 1 <= k <= L:
        raise SiteOutOfRange(f"site {k} outside lattice")
    if species not in _STATES:
        raise ValueError("species must be A, VACANT or B")
    return occ[: k + L - 1].count(species)


def weyl_alcove(n: int, L: int):
    """Strictly increasing n-tuples of sites, in lexicographic order."""
    return itertools.combinations(sites(L), n)


# ---------------------------------------------------------------------
# Exhaustive verification of the counting and permutation identities the
# weight/duality computations rest on.
# ---------------------------------------------------------------------


def check_counting_lemmas(L: int) -> Report:
    """Step-function identities and additivity/inversion of left counts.

    Exhausts every pair of disjoint coordinate sets on the 2L sites, for
    both species, as occupation tuples fed to the same `count_left` that
    the duality exponent and the ladder dressing call.  Returns the first
    counterexample on failure; there is none if the implementation is
    sound.
    """
    report = Report()
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

    def lone(species, x):
        """Occupations of a lattice whose one particle sits at site x."""
        return tuple(species if k == x else VACANT for k in lam)

    # single-particle left counts reduce to the step function
    bad = []
    for x in lam:
        for r in lam:
            if count_left(lone(A, x), r, A) != theta(x, r):
                bad.append((x, r, "A"))
            if count_left(lone(B, x), r, B) != theta(x, r):
                bad.append((x, r, "B"))
    report.check(f"L{L}:single-left-count", bad)

    for species, tag in ((A, "A"), (B, "B")):
        single = {x: lone(species, x) for x in lam}
        add_bad, comp_bad, inv_bad, single_bad = [], [], [], []
        for assign in itertools.product((0, 1, 2), repeat=2 * L):
            first = tuple(k for k, w in zip(lam, assign) if w == 1)
            second = tuple(k for k, w in zip(lam, assign) if w == 2)
            union = tuple(species if w else VACANT for w in assign)
            occ_first = tuple(species if w == 1 else VACANT for w in assign)
            occ_second = tuple(species if w == 2 else VACANT for w in assign)
            n_second = len(second)
            for k in lam:
                in_union = count_left(union, k, species)
                in_first = count_left(occ_first, k, species)
                in_second = count_left(occ_second, k, species)
                if in_union != in_first + in_second:
                    add_bad.append((first, second, k))
                if in_first != sum(count_left(single[c], k, species) for c in first):
                    single_bad.append((first, k))
                if k in second:
                    continue
                # complement form: counts of the added set via step functions
                if in_union != in_first + n_second - sum(theta(k, c) for c in second):
                    comp_bad.append((first, second, k))
                # inversion: left counts of a set from single-site counts
                if in_second != n_second - sum(
                    count_left(single[k], c, species) for c in second
                ):
                    inv_bad.append((second, k))
        report.check(f"L{L}:left-count-union-additivity-{tag}", add_bad)
        report.check(f"L{L}:left-count-single-additivity-{tag}", single_bad)
        report.check(f"L{L}:left-count-union-complement-{tag}", comp_bad)
        report.check(f"L{L}:left-count-inversion-{tag}", inv_bad)
    return report


# the permutation identities are checked for tuples of up to this many sites
PERMUTATION_MAX_N = 4


def _inversion_weight(r: tuple[int, ...], perm: tuple[int, ...]) -> int:
    n = len(r)
    s = 0
    for j in range(n):
        for i in range(j):
            s += theta(r[perm[i]], r[perm[j]])
    return s


def check_permutation_identities(L: int) -> Report:
    """Symmetric-group identities behind the divided-power row actions.

    For tuples of n <= PERMUTATION_MAX_N sites.  First: summing
    q**(-2*noninversions + n(n-1)/2) over the symmetric group gives the
    q-factorial times an ordering monomial, for every strictly increasing
    coordinate tuple.  Second: a sum over ordered tuples equals the
    alcove-plus-permutations sum for functions that vanish on diagonals.
    """
    report = Report()
    lam = list(sites(L))
    for n in range(1, min(PERMUTATION_MAX_N, 2 * L) + 1):
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
            # the folded sum runs over tuples of distinct sites: it
            # reads the values the full sum computed
            values = {r: f(r) for r in itertools.product(lam, repeat=n)}
            full = LaurentPoly.zero()
            for value in values.values():
                full = full + value
            folded = LaurentPoly.zero()
            for r in weyl_alcove(n, L):
                for perm in perms:
                    folded = folded + values[tuple(r[p] for p in perm)]
            if full != folded:
                bad.append((fname, str(full - folded)))
        report.check(f"L{L}:diagonal-vanishing-symmetrization-n{n}", bad)
    return report
