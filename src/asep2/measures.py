"""Reversible, canonical, grandcanonical and pure measures of the process.

The unnormalised reversible weight of a configuration is a pure power of
q whose exponent (`pi_exponents`, over occupation rows) combines a
(2k-1)-weighted species asymmetry with a cross-species ordering term.
Restricted to a particle-number sector and divided by the Gaussian
trinomial it is the unique invariant measure of the sector; fugacity
mixtures over sectors give the grandcanonical family, whose
single-species limits are product measures with tanh-shaped density
profiles.  A `Measure` holds occupation rows and one weight per row.

Exact identities (detailed balance, partition functions, sector
uniqueness) are kept in the ring; probabilities appear only after
substituting a numeric q0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .generator import ModelParams, Ring, build_H, build_H_sector
from .lattice import (
    A,
    B,
    Config,
    Sector,
    _read_only,
    config_rows,
    encode,
    left_counts,
    occupations,
    sector_occupations,
    sectors,
    sites,
)
from .qring import LaurentPoly, from_terms, q_factorial, q_multinomial
from .reporting import Report, matrix_is_zero
from .sparse import SparseMatrix, product_difference


# grid and tolerances of the float checks
CHEM_POTS = (-1.0, 0.0, 1.0)  # chemical potentials nu, mu
SHOCK_QS = (Fraction(2), Fraction(6, 5))
STATIONARY_TOL = 1e-12
SHOCK_TOL = 1e-10


class DegenerateWidth(ValueError):
    """Shock profiles need q != 1: the width 1/ln(q) diverges."""


class Measure:
    """Weights over occupation rows: int8 `rows` in basis order (the
    constructor sorts them) and one weight per row, an int64 q-exponent in
    an exact measure (its partition function stored apart) or a float.
    Both arrays are read-only; normalisation happens at evaluation time.
    """

    def __init__(self, rows, weights, partition=None):
        rows = np.asarray(rows, dtype=np.int8)
        order = np.argsort(encode(rows))
        self.rows, self.weights = rows[order], np.asarray(weights)[order]
        self.rows.flags.writeable = self.weights.flags.writeable = False
        self.partition = partition

    @property
    def L(self) -> int:
        return self.rows.shape[1] // 2

    @property
    def exact(self) -> bool:
        return self.weights.dtype.kind == "i"

    @cached_property
    def _positions(self) -> dict:
        """The position of each row, keyed by its occupation tuple."""
        return {occ: i for i, occ in enumerate(map(tuple, self.rows.tolist()))}

    def probability(self, c: Config, q0: float | None = None) -> float:
        i = self._positions.get(c.occ)
        if i is None:
            return 0.0
        if not self.exact:
            return float(self.weights[i])
        if q0 is None:
            raise ValueError("q0 required for exact weights")
        z = self.partition.eval(q0) if self.partition is not None else 1.0
        return q0 ** int(self.weights[i]) / z

    def normalize(self, q0: float | None = None) -> "Measure":
        """Float measure with weights summing to one, summed in row order."""
        if self.exact:
            if q0 is None:
                raise ValueError("q0 required for exact weights")
            values = q_powers(self.weights, q0)
        else:
            values = self.weights.astype(np.float64)
        total = sum(values.tolist())
        if total <= 0:
            raise ValueError("cannot normalise a vanishing measure")
        return Measure(self.rows, values / total)

    @classmethod
    def point_mass(cls, c: Config) -> "Measure":
        return cls(config_rows([c]), np.ones(1))


# ---------------------------------------------------------------------
# reversible weight
# ---------------------------------------------------------------------


def pi_exponents(rows) -> np.ndarray:
    """Exponent of the reversible q-power weight of each row of an (n, 2L)
    occupation table: an A at site k adds 2k - 1 minus the B count to its
    left, a B at k the A count to its left minus (2k - 1)."""
    a, b = rows == A, rows == B
    odd = 2 * np.arange(rows.shape[1]) + 1 - rows.shape[1]  # 2k - 1 at each site k
    return (a * (odd - left_counts(rows, B)) + b * (left_counts(rows, A) - odd)).sum(axis=1)


def q_powers(exponents, q0: float) -> np.ndarray:
    """q0**e for each e of an integer array, each exponent from the least to
    the greatest evaluated once as the Python float q0**e."""
    lo, hi = int(exponents.min(initial=0)), int(exponents.max(initial=0))
    return np.array([q0**e for e in range(lo, hi + 1)])[exponents - lo]


# ---------------------------------------------------------------------
# canonical and grandcanonical measures
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def canonical(sector: Sector) -> Measure:
    """Unique invariant measure of a sector, unnormalised in the ring
    (cached: a Measure is immutable, so callers share it).

    The stored partition function is the Gaussian trinomial; the
    brute-force weight sum over the sector must reproduce it exactly,
    which the verification suite checks.
    """
    rows = sector_occupations(sector)
    return Measure(
        rows, pi_exponents(rows), partition=q_multinomial(2 * sector.L, sector.N, sector.M)
    )


def sector_weight_sum(sector: Sector) -> LaurentPoly:
    """Sum of the reversible weights over a sector: its moment of the
    empty site tuple."""
    return ring_moments(sector, [()], A)[0]


def grandcanonical(nu: float, mu: float, p: ModelParams) -> Measure:
    """Fugacity mixture over all sectors, normalised at the numeric q0.

    A chemical potential of -inf is zero fugacity: the measure keeps only
    the configurations without that species, so grandcanonical(nu, -inf, p)
    is the pure A measure and grandcanonical(-inf, mu, p) the pure B one.
    """
    weights, support = _grandcanonical_weights(nu, mu, p)
    return Measure(occupations(p.L)[support], weights[support])


def _fugacities(nu: float, mu: float, p: ModelParams) -> tuple[dict[Sector, float], float]:
    """The fugacity e^(nu N + mu M - shift) of each sector, in `sectors(L)`
    order, and their normaliser y = sum fugacity * C_2L(N, M) at q0 (the
    bivariate Rogers-Szego polynomial), summed term by term in that order.

    A count of 0 adds nothing to the exponent, even at a chemical potential
    of -inf; a sector with a count of a species at -inf has zero fugacity
    and is left out.  The shift max(0, 2L nu, 2L mu) is the largest
    exponent over all sectors (a corner), so no fugacity overflows.
    """
    q0 = p.q0
    shift = max(0.0, 2 * p.L * nu, 2 * p.L * mu)
    fugacity, y = {}, 0.0
    for s in sectors(p.L):
        exponent = (nu * s.N if s.N else 0.0) + (mu * s.M if s.M else 0.0)
        if exponent > -math.inf:
            fugacity[s] = math.exp(exponent - shift)
            y += fugacity[s] * q_multinomial(2 * p.L, s.N, s.M).eval(q0)
    return fugacity, y


def _grandcanonical_weights(
    nu: float, mu: float, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """`grandcanonical`'s weight of every basis row, in basis order, and the
    mask of its support (0.0 weight outside it).

    Each weight is a sector's fugacity (`_fugacities`) times
    q0**pi_exponent over y, the power taken as a Python float once per
    exponent (`q_powers`), so the array holds the same floats as a loop
    over configurations would.  The q0-powers do not depend on (nu, mu):
    they are `_basis_q_powers(L, q0)`, built once per (L, q0).
    """
    fugacity, y = _fugacities(nu, mu, p)
    occ = occupations(p.L)
    n, m = (occ == A).sum(axis=1), (occ == B).sum(axis=1)
    # by sector (N, M); the corner N + M > 2L holds no configuration
    size = 2 * p.L + 1
    table, kept = np.zeros((size, size)), np.zeros((size, size), dtype=bool)
    for s, f in fugacity.items():
        table[s.N, s.M], kept[s.N, s.M] = f, True
    return table[n, m] * _basis_q_powers(p.L, p.q0) / y, kept[n, m]


@lru_cache(maxsize=None)
def _basis_q_powers(L: int, q0: float) -> np.ndarray:
    """q0**pi_exponent of every basis row, in basis order (`q_powers`), as a
    read-only array."""
    return _read_only(q_powers(pi_exponents(occupations(L)), q0))


@lru_cache(maxsize=None)
def _sector_q_powers(sector: Sector, q0: float) -> tuple[np.ndarray, float]:
    """q0**pi_exponent of each row of `canonical(sector)`, in its row order,
    as a read-only array, and the sector's partition function at q0."""
    part = canonical(sector)
    return _read_only(q_powers(part.weights, q0)), part.partition.eval(q0)


def grandcanonical_mixture(nu: float, mu: float, p: ModelParams) -> np.ndarray:
    """`_grandcanonical_weights`' vector assembled sector by sector
    (cross-check form), in basis order: each sector's canonical measure at
    q0 times its fugacity over y, 0.0 in a sector at zero fugacity.  A
    sector's rows are in basis order, so they fill its mask of the basis
    in turn.  Each sector's q0-powers and partition value do not depend on
    (nu, mu): they are `_sector_q_powers(sector, q0)`, built once per
    (sector, q0)."""
    q0 = p.q0
    fugacity, y = _fugacities(nu, mu, p)
    occ = occupations(p.L)
    n, m = (occ == A).sum(axis=1), (occ == B).sum(axis=1)
    vec = np.zeros(len(occ))
    for sector, f in fugacity.items():
        powers, z = _sector_q_powers(sector, q0)
        vec[(n == sector.N) & (m == sector.M)] = f * z / y * powers / z
    return vec


# ---------------------------------------------------------------------
# pure single-species measures and shock profiles
# ---------------------------------------------------------------------


def pure_marginal(species: int, chem_pot: float, p: ModelParams, k: int) -> float:
    """Occupation probability of site k under the pure product measure."""
    q0 = p.q0
    if species not in (A, B):
        raise ValueError("species must be A or B")
    # z / (1 + z) for z = e^chem_pot q0^(+-(2k-1)), top and bottom times e^-shift
    shift = max(0.0, chem_pot)
    z = math.exp(chem_pot - shift) * q0 ** ((2 * k - 1) if species == A else (1 - 2 * k))
    return z / (math.exp(-shift) + z)


@dataclass(frozen=True)
class ShockProfile:
    """tanh-shaped density profile of a pure measure.

    The width is 1/ln(q) (negative for q < 1, where the profile is
    mirrored); the centre for the A species sits where the fugacity
    balances the site bias, and likewise for B with its own chemical
    potential.
    """

    species: int
    kappa: float
    xi: float

    def density(self, k: float) -> float:
        t = math.tanh((k - self.kappa) / self.xi)
        return 0.5 * (1.0 + t) if self.species == A else 0.5 * (1.0 - t)


def shock_profile(species: int, chem_pot: float, p: ModelParams) -> ShockProfile:
    if species not in (A, B):
        raise ValueError("species must be A or B")
    q0 = p.q0
    if q0 == 1.0:
        raise DegenerateWidth("shock width 1/ln(q) diverges at q = 1")
    ln_q = math.log(q0)
    if species == A:
        kappa = (1.0 - chem_pot / ln_q) / 2.0
    else:
        kappa = (1.0 + chem_pot / ln_q) / 2.0
    return ShockProfile(species=species, kappa=kappa, xi=1.0 / ln_q)


# ---------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------


@lru_cache(maxsize=None)
def pi_hat(L: int, power: int = 1) -> SparseMatrix:
    """Diagonal matrix of reversible weights on the full basis, to `power`:
    the monomials q**(power * pi_exponents)."""
    return SparseMatrix.monomial_diagonal(2 * power * pi_exponents(occupations(L)))


def check_reversibility(H: SparseMatrix, L: int) -> Report:
    """Detailed balance as the exact matrix identity H P = P H^T."""
    report = Report()
    P = pi_hat(L)
    matrix_is_zero(
        report, f"L{L}:detailed-balance", product_difference(H, P, P, H.transpose())
    )
    return report


def check_partition_functions(L: int) -> Report:
    """Each sector's q-Pascal trinomial, exactly.  `partition-function`
    compares it with the sector's weight sum, so it catches a wrong weight
    or sector table; `partition-factorization` cross-multiplies the
    q-factorial formula, q_multinomial(2L, N, M) [N]! [M]! [2L-N-M]! ==
    [2L]!, so it catches a wrong trinomial or q-factorial."""
    report = Report()
    every = sectors(L)
    report.check(
        f"L{L}:partition-function",
        [(s.N, s.M) for s in every if sector_weight_sum(s) != q_multinomial(2 * L, s.N, s.M)],
    )
    report.check(
        f"L{L}:partition-factorization",
        [
            (s.N, s.M)
            for s in every
            if q_multinomial(2 * L, s.N, s.M)
            * q_factorial(s.N)
            * q_factorial(s.M)
            * q_factorial(2 * L - s.N - s.M)
            != q_factorial(2 * L)
        ],
    )
    return report


def check_uniqueness(p: ModelParams) -> Report:
    """Each sector's invariant measure is unique and canonical, decided
    exactly sector by sector (`check_sector_uniqueness`)."""
    report = Report()
    for sector in sectors(p.L):
        report.extend(check_sector_uniqueness(p, sector))
    return report


def spread(dim: int, src: np.ndarray, tgt: np.ndarray, gain=None, start: int = 0):
    """Frontier search from row `start` along the moves src -> tgt, one
    sparse step per round: the mask of the rows reached and, when each
    move carries a float `gain`, the product of the gains along the path
    that first reached each row (1 at `start`, 0 off the mask).  Of the
    moves that reach a row in the same round, the first in term order
    gives its value."""
    reached = frontier = np.arange(dim) == start
    value = reached.astype(np.float64)
    while frontier.any():
        step = np.flatnonzero(frontier[src] & ~reached[tgt])
        new, first = np.unique(tgt[step], return_index=True)
        if gain is not None:
            value[new] = value[src[step[first]]] * gain[step[first]]
        frontier = np.zeros(dim, bool)
        frontier[new] = True
        reached = reached | frontier
    return reached, value


def check_sector_uniqueness(p: ModelParams, sector: Sector) -> Report:
    """The exact sector generator H has a one-dimensional kernel spanned by
    `canonical(sector)`.

    kernel-dimension: every row reaches the first row along H's
    off-diagonal terms and is reached from it, so the chain is
    irreducible and, by Perron-Frobenius, H's kernel is one-dimensional.
    kernel-matches-canonical: H P = P H^T for the canonical weights P and
    1^T H = 0, which give H pi = 0.  Each residual is one normal-form
    reduction of H's terms: c q^h at (r, s) adds c q^(h + pi_s) to H P at
    (r, s) and to P H^T at (s, r), and c q^h to 1^T H at (0, s).
    """
    report = Report()
    tag = f"L{sector.L}:kernel-%s-N{sector.N}-M{sector.M}"
    H = build_H_sector(p, sector, Ring.EXACT)
    dim, row, col = H.dim, H.row, H.col
    off = row != col
    apart = np.flatnonzero(
        ~(spread(dim, col[off], row[off])[0] & spread(dim, row[off], col[off])[0])
    )
    rows = sector_occupations(sector)

    def text(j: int) -> str:
        return Config(sector.L, rows[j].tolist()).text()

    report.check(
        tag % "dimension",
        [f"{text(j)} does not communicate with {text(0)}" for j in apart[:1].tolist()],
    )
    h = H.h + 2 * canonical(sector).weights[col]
    balance = SparseMatrix.from_arrays(
        dim, np.append(row, col), np.append(col, row), np.append(h, h), np.append(H.coeff, -H.coeff)
    )
    sums = SparseMatrix.from_arrays(dim, 0 * col, col, H.h, H.coeff)
    bad = []
    for name, residual in (("detailed balance", balance), ("column sums", sums)):
        if not residual.is_zero():
            (r, c), v = residual.first_entry()
            bad.append(f"{name} {r} {c} {v}")
    report.check(tag % "matches-canonical", bad)
    return report


def check_grandcanonical_stationarity(p: ModelParams) -> Report:
    """Fugacity mixtures are killed by the float generator, grid-wise: the
    sparse product H w is one `np.bincount` over H's terms.

    Also checks that the direct weights and the sector-by-sector mixture
    assemble to the same measure.
    """
    report = Report()
    H = build_H(p, Ring.FLOAT)
    for nu in CHEM_POTS:
        for mu in CHEM_POTS:
            vec = _grandcanonical_weights(nu, mu, p)[0]
            residual = np.bincount(H.row, H.coeff * vec[H.col], minlength=H.dim)
            worst = float(np.max(np.abs(residual)))
            report.check(
                f"L{p.L}:grandcanonical-stationary-nu{nu:g}-mu{mu:g}",
                [] if worst < STATIONARY_TOL else [f"residual {worst:g}"],
            )
            gap = float(np.max(np.abs(grandcanonical_mixture(nu, mu, p) - vec)))
            report.check(
                f"L{p.L}:grandcanonical-mixture-form-nu{nu:g}-mu{mu:g}",
                [] if gap < STATIONARY_TOL else ["forms disagree"],
            )
    return report


def check_shock_agreement(L: int) -> Report:
    """Closed tanh profiles against mixture-computed densities."""
    report = Report()
    occ = occupations(L)
    for q in SHOCK_QS:
        p = ModelParams.from_qw(L, q)
        for nu in CHEM_POTS:
            # the pure measure of a species: the other one at zero fugacity
            for species, tag, chems in ((A, "A", (nu, -math.inf)), (B, "B", (-math.inf, nu))):
                # every site's density in one pass over the basis
                mixture = _grandcanonical_weights(*chems, p)[0] @ (occ == species)
                profile = shock_profile(species, nu, p)
                closed = np.array([profile.density(k) for k in sites(L)])
                marg = np.array([pure_marginal(species, nu, p, k) for k in sites(L)])
                # np.max, unlike max, keeps a NaN, so a NaN density fails
                worst = float(np.max(np.abs(np.append(mixture - closed, marg - closed))))
                report.check(
                    f"L{L}:shock-profile-{tag}-q{float(q):g}-nu{nu:g}",
                    [] if worst < SHOCK_TOL else [f"max deviation {worst:g}"],
                )
    return report


def check_marginal_independence(L: int) -> Report:
    """Species moments in a sector ignore the other species count, exactly.

    Compared by cross-multiplication in the ring: weighted sum times the
    other partition function on both sides.
    """
    report = Report()
    lam = list(sites(L))
    pairs = [(k,) for k in lam] + [
        (k1, k2) for i, k1 in enumerate(lam) for k2 in lam[i + 1 :]
    ]

    def moments(sector, species):
        return ring_moments(sector, pairs, species), q_multinomial(2 * L, sector.N, sector.M)

    pure = {
        A: [moments(Sector(L, n, 0), A) for n in range(2 * L + 1)],
        B: [moments(Sector(L, 0, m), B) for m in range(2 * L + 1)],
    }
    bad = []
    for sector in sectors(L):
        n, m = sector.N, sector.M
        sides = [
            (tag, moments(sector, species), pure[species][count])
            for tag, species, count in (("A", A, n), ("B", B, m))
        ]
        for i, sites_tuple in enumerate(pairs):
            for tag, (s, z), (s0, z0) in sides:
                if s[i] * z0 != s0[i] * z:
                    bad.append((tag, n, m, sites_tuple))
    report.check(f"L{L}:moment-independence", bad)
    return report


def ring_moments(sector: Sector, site_tuples, species: int) -> list[LaurentPoly]:
    """Unnormalised sector moments of products of occupation numbers, one
    per site tuple: the reversible weights summed over the sector's
    configurations with `species` at every site of the tuple.

    One pass over the rows and exponents of the sector's cached
    `canonical` measure; callers compare moments across sectors by
    cross-multiplication with the partition functions, without division.
    """
    measure = canonical(sector)
    half_exponents, held = 2 * measure.weights, measure.rows == species
    hits = (held[:, [k + sector.L - 1 for k in tup]].all(axis=1) for tup in site_tuples)
    return [from_terms(dict(Counter(half_exponents[hit].tolist()))) for hit in hits]


# ---------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------


def write_profile_csv(fh, rows) -> None:
    fh.write("site,density\n")
    for k, density in rows:
        fh.write(f"{k},{density!r}\n")


def write_measure_csv(fh, measure: Measure) -> None:
    """One line per row, in basis order: the configuration's text and its
    weight, the monomial q**e of an exact measure or a float's repr."""
    fh.write("config,weight\n")
    show = (lambda e: str(LaurentPoly.q_power(e))) if measure.exact else repr
    for row, w in zip(measure.rows.tolist(), measure.weights.tolist()):
        fh.write(f"{Config(measure.L, row).text()},{show(w)}\n")
