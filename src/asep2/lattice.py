"""Configurations of the two-species exclusion lattice.

The lattice is {-L+1, ..., L} with an even number 2L of sites (odd sizes
are rejected by construction since L is integer).  Each site holds one
of three states: an A particle, a vacancy, or a B particle.  Site labels
k are used throughout the public surface because all measure and
duality exponents carry (2k-1) weights; the 0-based array position is
private.

The text form of a configuration is a string over {A, 0, B} read
left-to-right from site -L+1, e.g. "A0B0".

Every full-basis matrix lives on the 3^(2L) configurations in ternary
order, site -L+1 the least significant digit.  `encode` and `decode` are
the one base-3 codec (exact in int64 up to CODE_MAX_L); the array
builders read the int8 tables `occupations(L)` and `sector_occupations`,
whose `Config` views `all_configs(L)` and `enumerate_sector` serve text
and FAIL details.

The one left count, `left_counts(rows, species)`, counts a species
strictly left of every site of every row of an occupation table.  The
reversible weight, the duality values, the ladder dressing and the
counting lemmas all call it.

The lemma checks at the end of the module (`check_counting_lemmas`,
`check_permutation_identities`) test the left count and the step
function exhaustively.  They evaluate `left_counts`, `theta` and
`q_factorial` into small tables, then compare each identity over all
its cases at once on exact int64 numpy arrays (no float or modular
shortcut); a FAIL detail is the first counterexample in the order of
the nested loops the identity reads as.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .qring import LaurentPoly, q_factorial
from .reporting import Report
from .sparse import INT64_MAX

# Local states, in ternary order: the encoding A=0, vacancy=1, B=2 fixes
# the basis ordering of every matrix in the package.
A = 0
VACANT = 1
B = 2

_STATES = (A, VACANT, B)
_CHAR_OF = {A: "A", VACANT: "0", B: "B"}
_STATE_OF = {"A": A, "0": VACANT, "B": B}

# a basis index is exact in int64 while 3**(2L) <= 2**63
CODE_MAX_L = 19


class SiteOutOfRange(ValueError):
    pass


class OverlappingCoordinates(ValueError):
    pass


def sites(L: int) -> range:
    """All site labels -L+1, ..., L."""
    return range(-L + 1, L + 1)


def theta(k: int, l: int) -> int:
    """Step function: 1 iff k < l."""
    return 1 if k < l else 0


@dataclass(frozen=True)
class Config:
    """Occupation-variable form of a configuration; the same type serves
    as a dual coordinate set z."""

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

    @property
    def N(self) -> int:
        return self.occ.count(A)

    @property
    def M(self) -> int:
        return self.occ.count(B)

    @property
    def index(self) -> int:
        """Basis index, from 0: `encode` of the occupation row."""
        return int(encode(self.occ))

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


def sectors(L: int) -> list[Sector]:
    """The lattice's sectors in (N, M) order."""
    return [Sector(L, n, m) for n in range(2 * L + 1) for m in range(2 * L - n + 1)]


@lru_cache(maxsize=None)
def _places(L: int) -> np.ndarray:
    if L > CODE_MAX_L:
        raise ValueError(f"base-3 codes overflow int64: need L <= {CODE_MAX_L}, got L={L}")
    return _read_only(3 ** np.arange(2 * L, dtype=np.int64))


def encode(rows) -> np.ndarray:
    """Basis indices of occupation rows (last axis: the 2L sites)."""
    rows = np.asarray(rows)
    codes = np.zeros(rows.shape[:-1], dtype=np.int64)
    # a column at a time, so no int64 copy of a whole int8 table is made
    for i, place in enumerate(_places(rows.shape[-1] // 2)):
        codes += place * rows[..., i].astype(np.int64)
    return codes


def decode(codes, L: int) -> np.ndarray:
    """The int8 occupation rows of basis indices, one row of 2L sites per code."""
    codes = np.asarray(codes, dtype=np.int64)
    rows = np.empty(codes.shape + (2 * L,), dtype=np.int8)
    for i, place in enumerate(_places(L)):
        rows[..., i] = codes // place % 3
    return rows


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def occupations(L: int) -> np.ndarray:
    """The basis table as a read-only int8 array: row i is the occupation
    row of basis index i."""
    return _read_only(decode(np.arange(3 ** (2 * L)), L))


@lru_cache(maxsize=None)
def all_configs(L: int) -> tuple[Config, ...]:
    """The basis table as Configs: entry i is the configuration of index i."""
    return tuple(Config(L, tuple(row.tolist())) for row in occupations(L))


def config_rows(configs) -> np.ndarray:
    """The occupation rows of Configs as an int8 array, one row each."""
    return np.array([c.occ for c in configs], dtype=np.int8)


def vacant_config(L: int) -> Config:
    return Config(L, (VACANT,) * (2 * L))


def _combinations(n: int, k: int) -> np.ndarray:
    """The k-subsets of range(n), as a (C(n, k), k) array."""
    return np.array(list(itertools.combinations(range(n), k)), np.intp).reshape(comb(n, k), k)


@lru_cache(maxsize=None)
def sector_occupations(sector: Sector) -> np.ndarray:
    """The sector's occupation rows in basis order, as a read-only int8
    array: each choice of N sites for A with each choice of M of the other
    sites for B."""
    n, N, M = 2 * sector.L, sector.N, sector.M
    is_a = np.zeros((comb(n, N), n), dtype=bool)
    np.put_along_axis(is_a, _combinations(n, N), True, axis=1)
    # the sites left for B, ascending: a stable sort puts the False ones first
    free = np.argsort(is_a, axis=1, kind="stable")[:, : n - N]
    rows = np.where(is_a, A, VACANT).astype(np.int8)[:, None].repeat(comb(n - N, M), axis=1)
    np.put_along_axis(rows, free[:, _combinations(n - N, M)], B, axis=2)
    rows = rows.reshape(-1, n)
    return _read_only(rows[np.argsort(encode(rows))])


def mirror(rows) -> np.ndarray | None:
    """The mirror J on a basis table (occupation rows in basis order): the
    index of each row read right to left, site k at position 2L - 1 - k,
    with A and B exchanged; None when the table is not closed under J.
    J is an involution that maps sector (N, M) onto (M, N), so it permutes
    the full basis and every N = M sector.  It keeps the sign of every
    bond (`generator.BOND_SIGN`): the bond (s, s') turns into (B - s',
    B - s), whose difference is s' - s, so the exchange rule commutes
    with it."""
    codes = encode(rows)
    images = encode((A + B) - np.asarray(rows)[:, ::-1])
    at = np.searchsorted(codes, images).clip(max=len(codes) - 1)
    return at if np.array_equal(codes[at], images) else None


def enumerate_sector(sector: Sector) -> list[Config]:
    """All configurations in the sector, in basis order."""
    return [Config(sector.L, tuple(row)) for row in sector_occupations(sector).tolist()]


def left_counts(rows, species: int) -> np.ndarray:
    """The count of `species` strictly left of each site, for every row of
    an (n, 2L) occupation table, as an (n, 2L) int64 array: the cumulative
    count along the sites minus the site's own.  species is A, VACANT or
    B.  This is the one left count: a right count is the species total
    minus the left count minus the site's own.
    """
    if species not in _STATES:
        raise ValueError("species must be A, VACANT or B")
    held = np.asarray(rows) == species
    return np.cumsum(held, axis=1) - held


def weyl_alcove(n: int, L: int):
    """Strictly increasing n-tuples of sites, in lexicographic order."""
    return itertools.combinations(sites(L), n)


# ---------------------------------------------------------------------
# Exhaustive verification of the counting and permutation identities the
# weight/duality computations rest on.
# ---------------------------------------------------------------------


def _theta_table(lam) -> np.ndarray:
    """theta(k, l) for every pair of sites, as an int64 array indexed [k, l]."""
    return np.array([[theta(k, l) for l in lam] for k in lam], dtype=np.int64)


def _first(bad: np.ndarray, case) -> list:
    """[case(*i)] for the first True entry i of `bad` in C order, else [].

    The C order of the axes is the order of the nested loops the identity
    reads as, so this is the first counterexample those loops would find.
    """
    hits = np.argwhere(bad)
    return [case(*hits[0].tolist())] if len(hits) else []


def check_counting_lemmas(L: int) -> Report:
    """Step-function identities and additivity/inversion of left counts.

    Exhausts every pair of disjoint coordinate sets on the 2L sites, for
    both species, through the same `left_counts` that the reversible
    weight, the duality exponents and the ladder dressing call.  It is
    evaluated once per species, on the 2^(2L) rows that hold the species
    on one set of sites and vacancies elsewhere, indexed by the set's
    bitmask; `theta` is called once per pair of sites.  Each identity is
    then compared as one int64 array over all its cases: for the
    left-count identities, the 3^(2L) assignments of every site to
    neither set, the first or the second, times the 2L sites.  On failure
    the detail is the first counterexample in the order (assignment in
    `itertools.product` order, then site); there is none if the
    implementation is sound.  The largest arrays are the 3^(2L) x 2L
    ones (6561 x 8 int64 values at L = 4).
    """
    report = Report()
    lam = list(sites(L))
    n = 2 * L
    step = _theta_table(lam)
    delta = np.eye(n, dtype=np.int64)

    report.check(
        f"L{L}:theta-complement",
        _first(step + step.T + delta != 1, lambda k, l: (lam[k], lam[l])),
    )

    # sum over k of [k == r] [k < x], and of [k == r] [k > x]
    less = (np.arange(n)[:, None] < np.arange(n)).astype(np.int64)
    bad = np.stack([delta @ less != step, delta @ less.T != step.T], axis=-1)
    report.check(
        f"L{L}:theta-delta-sum",
        _first(bad, lambda r, x, side: (lam[r], lam[x], ("left", "right")[side])),
    )

    lone = 1 << np.arange(n)  # the mask of one particle at site lam[i]
    # row `mask` holds the species where the mask has a bit, else a vacancy
    bits = np.arange(1 << n)[:, None] & lone != 0
    counts = {s: left_counts(np.where(bits, s, VACANT), s) for s in (A, B)}

    # single-particle left counts reduce to the step function
    bad = np.stack([counts[s][lone] != step for s in (A, B)], axis=-1)
    report.check(
        f"L{L}:single-left-count",
        _first(bad, lambda x, r, s: (lam[x], lam[r], ("A", "B")[s])),
    )

    # assignment a puts site lam[i] in the first set if its digit i is 1,
    # in the second if 2; lam[0] is the most significant digit
    digits = decode(np.arange(3**n), L)[:, ::-1]
    in_first, in_second = (digits == 1).astype(np.int64), (digits == 2).astype(np.int64)
    first_mask, second_mask = in_first @ lone, in_second @ lone
    n_second = in_second.sum(axis=1, keepdims=True)
    outside_second = digits != 2

    def coords(a, digit):
        return tuple(k for k, w in zip(lam, digits[a].tolist()) if w == digit)

    def sets_at(a, k):
        return (coords(a, 1), coords(a, 2), lam[k])

    for species, tag in ((A, "A"), (B, "B")):
        table = counts[species]
        single = table[lone]  # [c, k]: left count at k of one particle at c
        union = table[first_mask | second_mask]
        first, second = table[first_mask], table[second_mask]
        add_bad = union != first + second
        single_bad = first != in_first @ single
        # complement form: counts of the added set via step functions
        comp_bad = outside_second & (union != first + n_second - in_second @ step.T)
        # inversion: left counts of a set from single-site counts
        inv_bad = outside_second & (second != n_second - in_second @ single.T)
        report.check(f"L{L}:left-count-union-additivity-{tag}", _first(add_bad, sets_at))
        report.check(
            f"L{L}:left-count-single-additivity-{tag}",
            _first(single_bad, lambda a, k: (coords(a, 1), lam[k])),
        )
        report.check(f"L{L}:left-count-union-complement-{tag}", _first(comp_bad, sets_at))
        report.check(
            f"L{L}:left-count-inversion-{tag}",
            _first(inv_bad, lambda a, k: (coords(a, 2), lam[k])),
        )
    return report


# the permutation identities are checked for tuples of up to this many sites
PERMUTATION_MAX_N = 4


def _coefficient_rows(n_rows: int, lo: int, hi: int, terms) -> np.ndarray:
    """One Laurent polynomial per row: row t holds the coefficients of the
    exponents lo..hi, summed over the (exponents, coefficients) in `terms`,
    each giving one term of every row (a coefficient may be shared)."""
    rows = np.zeros((n_rows, hi - lo + 1), dtype=np.int64)
    t = np.arange(n_rows)
    # one term per row at a time, so no entry is hit twice in one step
    for exponents, coeffs in terms:
        rows[t, exponents - lo] += coeffs
    return rows


def _polynomial(lo: int, row: np.ndarray, unit: int) -> LaurentPoly:
    """A coefficient row from exponent lo on, whose exponents are `unit`
    half-steps, as a LaurentPoly."""
    return LaurentPoly({unit * (lo + i): c for i, c in enumerate(row.tolist()) if c})


def _pairs(n: int) -> tuple[list[int], list[int]]:
    """The positions i and j of the pairs i < j of an n-tuple."""
    pairs = list(itertools.combinations(range(n), 2))
    return [i for i, _ in pairs], [j for _, j in pairs]


def _vandermonde(r: np.ndarray) -> tuple[int, np.ndarray]:
    """prod_{i<j} (q**r_j - q**r_i) for each row of sites r, as (lo, rows)
    with q-exponents from lo on, expanded into its 2^(n(n-1)/2) signed
    monomials one at a time."""
    i, j = _pairs(r.shape[1])
    lo, hi = len(i) * int(r.min()), len(i) * int(r.max())
    # a choice takes -q**r_i from the pairs where it is True, else q**r_j
    terms = (
        (np.where(choice, r[:, i], r[:, j]).sum(axis=1), (-1) ** sum(choice))
        for choice in itertools.product((False, True), repeat=len(i))
    )
    return lo, _coefficient_rows(len(r), lo, hi, terms)


def _weighted_gap(r: np.ndarray) -> tuple[int, np.ndarray]:
    """prod_{i<j} (r_j - r_i) * q**(sum_i (i+1) r_i) for each row of sites
    r, as (lo, rows) with q-exponents from lo on."""
    i, j = _pairs(r.shape[1])
    exponents = r @ np.arange(1, r.shape[1] + 1)
    gap = np.prod(r[:, j] - r[:, i], axis=1)
    lo = int(exponents.min())
    return lo, _coefficient_rows(len(r), lo, int(exponents.max()), [(exponents, gap)])


def _unfolded_part(summand, r: np.ndarray, in_folded: np.ndarray) -> LaurentPoly:
    """The sum of `summand` over all tuples r minus its sum over the tuples
    with in_folded = 1; its coefficient rows are freed on return."""
    lo, rows = summand(r)
    return _polynomial(lo, rows.sum(axis=0) - in_folded @ rows, 2)


def _symmetrization_bound(L: int, n: int) -> int:
    """A bound on every coefficient the symmetrization sums of n-tuples
    reach: the (2L)^n summands have coefficients of absolute sum at most
    2^(n(n-1)/2) (Vandermonde) or (2L-1)^(n(n-1)/2) (gap), and the
    residual is the difference of two such sums."""
    pairs = n * (n - 1) // 2
    return 2 * (2 * L) ** n * max(2, 2 * L - 1) ** pairs


def check_permutation_identities(L: int) -> Report:
    """Symmetric-group identities behind the divided-power row actions.

    For tuples of n <= PERMUTATION_MAX_N sites.  First: summing
    q**(-2*noninversions + n(n-1)/2) over the symmetric group gives the
    q-factorial times an ordering monomial, for every strictly increasing
    coordinate tuple.  Second: a sum over ordered tuples equals the
    alcove-plus-permutations sum for functions that vanish on diagonals.

    `theta` is called once per pair of sites and `q_factorial` once per n.
    Each identity is compared exactly over all its cases at once, every
    polynomial being one row of an int64 coefficient array: the first
    identity has a row per alcove tuple (its n! permuted monomials minus
    the q-factorial), the second a row per tuple of `itertools.product`
    order for each summand (the Vandermonde product and the weighted
    gap), summed in full and over the alcove tuples' permutations.  A
    residual becomes a `LaurentPoly` only for the FAIL detail, the first
    failing alcove tuple or summand.

    Memory: the widest rows, the weighted gap's at n = 4, hold about
    (2L)^4 * 10(2L-1) int64 values (0.5 MB at L = 3, 2.3 MB at L = 4);
    one summand's rows are held at a time.  The sums must stay within
    int64: `_symmetrization_bound(L, n)` must not exceed 2^63 - 1, which
    holds up to L = 37.  Past it, OverflowError is raised before any
    array is allocated, rather than let a sum wrap.
    """
    n_max = min(PERMUTATION_MAX_N, 2 * L)
    if _symmetrization_bound(L, n_max) > INT64_MAX:
        raise OverflowError(
            f"permutation identities at L={L}, n={n_max} exceed int64 coefficients"
        )
    report = Report()
    lam = list(sites(L))
    step = _theta_table(lam)
    site = np.array(lam, dtype=np.int64)
    for n in range(1, n_max + 1):
        i, j = _pairs(n)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        alcove_sites = list(weyl_alcove(n, L))
        alcove = np.array(alcove_sites, dtype=np.int64) + L - 1  # site positions
        permuted = alcove[:, perms]  # [tuple, permutation, position]

        # in half-steps, per alcove tuple: q**(-2*noninversions + n(n-1)/2)
        # summed over perms, minus q_factorial(n) * q**(-2*order)
        noninversions = step[permuted[..., i], permuted[..., j]].sum(axis=-1)
        order = step[alcove[:, j], alcove[:, i]].sum(axis=-1)
        terms = [(n * (n - 1) - 4 * noninversions[:, p], 1) for p in range(len(perms))]
        terms += [(h - 4 * order, -c) for h, c in q_factorial(n).terms.items()]
        keys = np.array([exponents for exponents, _ in terms])
        lo = int(keys.min())
        residual = _coefficient_rows(len(alcove), lo, int(keys.max()), terms)
        report.check(
            f"L{L}:qfactorial-inversion-sum-n{n}",
            _first(
                residual.any(axis=1),
                lambda t: (alcove_sites[t], str(_polynomial(lo, residual[t], 1))),
            ),
        )

        # every n-tuple of positions, in itertools.product order; the folded
        # sum reads the rows the full sum adds, each permuted alcove tuple
        # found by its product-order index
        tuples = np.indices((2 * L,) * n).reshape(n, -1).T
        folded = (permuted @ (2 * L) ** np.arange(n - 1, -1, -1)).ravel()
        in_folded = np.bincount(folded, minlength=len(tuples))
        bad = []
        for fname, summand in (("vandermonde", _vandermonde), ("gap", _weighted_gap)):
            residual = _unfolded_part(summand, site[tuples], in_folded)
            if residual:
                bad.append((fname, str(residual)))
        report.check(f"L{L}:diagonal-vanishing-symmetrization-n{n}", bad)
    return report
