"""Reversible, canonical, grandcanonical and pure measures of the process.

The unnormalised reversible weight of a configuration is a pure power of
q whose exponent combines a (2k-1)-weighted species asymmetry with a
cross-species ordering term.  Restricted to a particle-number sector and
divided by the Gaussian trinomial it is the unique invariant measure of
the sector; fugacity mixtures over sectors give the grandcanonical
family, whose single-species limits are product measures with
tanh-shaped density profiles.

Exact identities (detailed balance, partition-function evaluation) are
kept in the ring; probabilities appear only after substituting a numeric
q0.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .generator import ModelParams, Ring, build_H_sector
from .lattice import (
    A,
    B,
    Config,
    Sector,
    all_configs,
    encode,
    enumerate_sector,
    occupations,
    sector_occupations,
    sites,
)
from .qring import LaurentPoly, from_terms, fugacity_exponent, q_multinomial, rogers_szego_y
from .reporting import Report, matrix_is_zero
from .sparse import SparseMatrix, product_difference


# grid and tolerances of the float checks
CHEM_POTS = (-1.0, 0.0, 1.0)  # chemical potentials nu, mu
SHOCK_QS = (Fraction(2), Fraction(6, 5))
KERNEL_TOL = 1e-10
STATIONARY_TOL = 1e-12
SHOCK_TOL = 1e-10


class DegenerateWidth(ValueError):
    """Shock profiles need q != 1: the width 1/ln(q) diverges."""


class Measure:
    """Weights over configurations.

    Exact measures keep ring-valued weights with the partition function
    stored separately; normalisation happens only at evaluation time.
    """

    def __init__(self, L, weights, partition=None):
        self.L = L
        self.weights = dict(weights)
        self.partition = partition

    def support(self):
        return self.weights.keys()

    def items(self):
        return self.weights.items()

    def as_vector(self, order) -> np.ndarray:
        return np.array([float(self.weights.get(c, 0.0)) for c in order])

    def probability(self, c: Config, q0: float | None = None) -> float:
        w = self.weights.get(c)
        if w is None:
            return 0.0
        if isinstance(w, LaurentPoly):
            if q0 is None:
                raise ValueError("q0 required for exact weights")
            z = self.partition.eval(q0) if self.partition is not None else 1.0
            return w.eval(q0) / z
        return float(w)

    def normalize(self, q0: float | None = None) -> "Measure":
        """Float measure with weights summing to one."""
        vals = {}
        for c, w in self.weights.items():
            vals[c] = w.eval(q0) if isinstance(w, LaurentPoly) else float(w)
        total = sum(vals.values())
        if total <= 0:
            raise ValueError("cannot normalise a vanishing measure")
        return Measure(self.L, {c: v / total for c, v in vals.items()})

    @classmethod
    def point_mass(cls, c: Config) -> "Measure":
        return cls(c.L, {c: 1.0})


# ---------------------------------------------------------------------
# reversible weight
# ---------------------------------------------------------------------


def pi_exponent(occ) -> int:
    """Exponent of the reversible q-power weight of an occupation sequence.

    An A at site k adds 2k - 1 minus the B count to its left, a B at k
    adds the A count to its left minus (2k - 1).
    """
    L = len(occ) // 2
    e = left_a = left_b = 0
    for i, s in enumerate(occ):
        odd = 2 * (i - L) + 1  # 2k - 1 at site k = i - L + 1
        if s == A:
            e += odd - left_b
            left_a += 1
        elif s == B:
            e += left_a - odd
            left_b += 1
    return e


def pi_unnormalized(c: Config) -> LaurentPoly:
    return LaurentPoly.q_power(pi_exponent(c.occ))


# ---------------------------------------------------------------------
# canonical and grandcanonical measures
# ---------------------------------------------------------------------


def canonical(sector: Sector) -> Measure:
    """Unique invariant measure of a sector, unnormalised in the ring.

    The stored partition function is the Gaussian trinomial; the
    brute-force weight sum over the sector must reproduce it exactly,
    which the verification suite checks.
    """
    weights = {c: pi_unnormalized(c) for c in enumerate_sector(sector)}
    return Measure(
        sector.L, weights, partition=q_multinomial(2 * sector.L, sector.N, sector.M)
    )


def sector_weight_sum(sector: Sector) -> LaurentPoly:
    """Brute-force sum of reversible weights over a sector (test oracle)."""
    total = LaurentPoly.zero()
    for c in enumerate_sector(sector):
        total = total + pi_unnormalized(c)
    return total


def _top_exponent(L: int, *chem_pots: float) -> float:
    """Largest exponent sum_i chem_i * count_i over all sectors (a corner).

    Fugacity weights and their normaliser are shifted by it, so none overflows.
    """
    return max(0.0, *(2 * L * chem for chem in chem_pots))


def grandcanonical(nu: float, mu: float, p: ModelParams) -> Measure:
    """Fugacity mixture over all sectors, normalised at the numeric q0.

    A chemical potential of -inf is zero fugacity: the measure keeps only
    the configurations without that species, so grandcanonical(nu, -inf, p)
    is the pure A measure and grandcanonical(-inf, mu, p) the pure B one.
    """
    weights, support = _grandcanonical_weights(nu, mu, p)
    configs = all_configs(p.L)
    held = np.flatnonzero(support).tolist()
    return Measure(p.L, {configs[i]: w for i, w in zip(held, weights[held].tolist())})


def _grandcanonical_weights(
    nu: float, mu: float, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """`grandcanonical`'s weight of every basis row, in basis order, and the
    mask of its support (0.0 weight outside it).

    Each weight is e^(nu N + mu M - shift) q0**pi_exponent / y with the two
    powers taken as Python floats, one per sector and one per exponent, so
    the array holds the same floats as a loop over configurations would.
    """
    q0 = p.q0
    shift = _top_exponent(p.L, nu, mu)
    y = rogers_szego_y(2 * p.L, nu, mu, q0, shift)
    occ = occupations(p.L)
    n, m = (occ == A).sum(axis=1), (occ == B).sum(axis=1)
    # by sector (N, M); the corner N + M > 2L holds no configuration
    size = 2 * p.L + 1
    exponent, fugacity = np.full((size, size), -math.inf), np.zeros((size, size))
    for a in range(size):
        for b in range(size - a):
            e = fugacity_exponent(nu, a) + fugacity_exponent(mu, b)
            exponent[a, b], fugacity[a, b] = e, math.exp(e - shift)
    pi = _pi_exponents(p.L)
    lo = int(pi.min())
    powers = np.array([q0**e for e in range(lo, int(pi.max()) + 1)])
    return fugacity[n, m] * powers[pi - lo] / y, exponent[n, m] > -math.inf


def grandcanonical_mixture(nu: float, mu: float, p: ModelParams) -> Measure:
    """The same measure assembled sector by sector (cross-check form)."""
    q0 = p.q0
    shift = _top_exponent(p.L, nu, mu)
    y = rogers_szego_y(2 * p.L, nu, mu, q0, shift)
    weights: dict = {}
    for n in range(2 * p.L + 1):
        for m in range(2 * p.L - n + 1):
            sector = Sector(p.L, n, m)
            z = q_multinomial(2 * p.L, n, m).eval(q0)
            coeff = math.exp(nu * n + mu * m - shift) * z / y
            for c, w in canonical(sector).items():
                weights[c] = coeff * w.eval(q0) / z
    return Measure(p.L, weights)


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
def _pi_exponents(L: int) -> np.ndarray:
    """`pi_exponent` of every basis row, as a read-only int64 array in basis order."""
    exponents = np.array([pi_exponent(row) for row in occupations(L).tolist()], dtype=np.int64)
    exponents.flags.writeable = False
    return exponents


@lru_cache(maxsize=None)
def pi_hat(L: int, power: int = 1) -> SparseMatrix:
    """Diagonal matrix of reversible weights on the full basis, to `power`:
    the monomials q**(power * pi_exponent)."""
    return SparseMatrix.monomial_diagonal(2 * power * _pi_exponents(L))


def check_reversibility(H: SparseMatrix, L: int) -> Report:
    """Detailed balance as the exact matrix identity H P = P H^T."""
    report = Report()
    P = pi_hat(L)
    matrix_is_zero(
        report, f"L{L}:detailed-balance", product_difference(H, P, P, H.transpose())
    )
    return report


def check_partition_functions(L: int) -> Report:
    """Sector weight sums against the Gaussian trinomials, exactly."""
    report = Report()
    spans = [(n, m) for n in range(2 * L + 1) for m in range(2 * L - n + 1)]
    report.check(
        f"L{L}:partition-function",
        [
            (n, m)
            for n, m in spans
            if sector_weight_sum(Sector(L, n, m)) != q_multinomial(2 * L, n, m)
        ],
    )
    report.check(
        f"L{L}:partition-factorization",
        [
            (n, m)
            for n, m in spans
            if q_multinomial(2 * L, n, m)
            != q_multinomial(2 * L, n, 0) * q_multinomial(2 * L - n, 0, m)
        ],
    )
    return report


def stationary_vector(op: SparseMatrix) -> np.ndarray:
    """Normalised kernel vector of a float sector generator.

    Solves the rate equations with one row replaced by the normalisation
    (LU with partial pivoting underneath); the caller checks residuals.
    """
    a = op.to_numpy()
    n = a.shape[0]
    if n == 1:
        return np.ones(1)
    system = a.copy()
    system[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs)


def check_uniqueness(p: ModelParams) -> Report:
    """Each sector kernel is one-dimensional and canonical."""
    report = Report()
    L, q0 = p.L, p.q0
    for n in range(2 * L + 1):
        for m in range(2 * L - n + 1):
            sector = Sector(L, n, m)
            op = build_H_sector(p, sector, Ring.FLOAT)
            a = op.to_numpy()
            size = sector.size
            rank = int(np.linalg.matrix_rank(a))
            report.check(
                f"L{L}:kernel-dimension-N{n}-M{m}",
                [] if rank == size - 1 else [f"rank {rank} of {size}"],
            )
            vec = stationary_vector(op)
            residual = float(np.max(np.abs(a @ vec))) if size > 1 else 0.0
            mu = canonical(sector)
            probs = np.array(
                [mu.probability(c, q0) for c in enumerate_sector(sector)]
            )
            diff = float(np.max(np.abs(vec - probs)))
            report.check(
                f"L{L}:kernel-matches-canonical-N{n}-M{m}",
                [] if residual < KERNEL_TOL and diff < KERNEL_TOL
                else [f"residual {residual:g} diff {diff:g}"],
            )
    return report


def check_grandcanonical_stationarity(p: ModelParams) -> Report:
    """Fugacity mixtures are killed by the float generator, grid-wise.

    Also checks that the direct weights and the sector-by-sector mixture
    assemble to the same measure.
    """
    from .generator import build_H

    report = Report()
    H = build_H(p, Ring.FLOAT).to_numpy()
    order = all_configs(p.L)
    for nu in CHEM_POTS:
        for mu in CHEM_POTS:
            vec = _grandcanonical_weights(nu, mu, p)[0]
            residual = float(np.max(np.abs(H @ vec)))
            report.check(
                f"L{p.L}:grandcanonical-stationary-nu{nu:g}-mu{mu:g}",
                [] if residual < STATIONARY_TOL else [f"residual {residual:g}"],
            )
            mix = grandcanonical_mixture(nu, mu, p).as_vector(order)
            gap = float(np.max(np.abs(mix - vec)))
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
                worst = 0.0
                for k in sites(L):
                    closed = profile.density(k)
                    marg = pure_marginal(species, nu, p, k)
                    worst = max(worst, abs(mixture[k + L - 1] - closed), abs(marg - closed))
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
    for n in range(2 * L + 1):
        for m in range(2 * L - n + 1):
            sector = Sector(L, n, m)
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

    One pass over the sector's occupation rows and their `pi_exponent`s;
    callers compare moments across sectors by cross-multiplication with
    the partition functions, without division.
    """
    rows = sector_occupations(sector)
    half_exponents = 2 * _pi_exponents(sector.L)[encode(rows)]
    held = rows == species
    moments = []
    for sites_tuple in site_tuples:
        hit = held[:, [k + sector.L - 1 for k in sites_tuple]].all(axis=1)
        moments.append(from_terms(dict(Counter(half_exponents[hit].tolist()))))
    return moments


# ---------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------


def write_profile_csv(fh, rows) -> None:
    fh.write("site,density\n")
    for k, density in rows:
        fh.write(f"{k},{density!r}\n")


def write_measure_csv(fh, measure: Measure) -> None:
    fh.write("config,weight\n")
    configs = list(measure.support())
    # in basis order, every row encoded at once
    rows = np.fromiter(itertools.chain.from_iterable(c.occ for c in configs), np.int8)
    for i in np.argsort(encode(rows.reshape(len(configs), -1))):
        c = configs[i]
        w = measure.weights[c]
        text = str(w) if isinstance(w, LaurentPoly) else repr(float(w))
        fh.write(f"{c.text()},{text}\n")
