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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .generator import ModelParams, Ring, build_H_sector
from .lattice import (
    A,
    B,
    Config,
    Positions,
    Sector,
    all_configs,
    bonds,
    count_left,
    enumerate_sector,
    sites,
)
from .qring import LaurentPoly, q_multinomial, rogers_szego_x, rogers_szego_y
from .reporting import Report, matrix_is_zero
from .sparse import SparseMatrix


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


def pi_exponent(c: Config) -> int:
    """Exponent of the reversible q-power weight, occupation form."""
    e = sum((2 * k - 1) * (c.a(k) - c.b(k)) for k in sites(c.L))
    for k in bonds(c.L):
        for l in range(-c.L + 1, k + 1):
            e += c.a(l) * c.b(k + 1) - c.b(l) * c.a(k + 1)
    return e


def pi_unnormalized(c: Config) -> LaurentPoly:
    return LaurentPoly.q_power(pi_exponent(c))


def pi_exponent_positions(z: Positions) -> int:
    """Same exponent computed from particle positions and left counts."""
    e = sum(2 * x - 1 - count_left(z, x, B) for x in z.x)
    e -= sum(2 * y - 1 - count_left(z, y, A) for y in z.y)
    return e


def pi_from_positions(z: Positions) -> LaurentPoly:
    return LaurentPoly.q_power(pi_exponent_positions(z))


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


def grandcanonical(nu: float, mu: float, p: ModelParams) -> Measure:
    """Fugacity mixture over all sectors, normalised at the numeric q0."""
    q0 = p.q0
    y = rogers_szego_y(2 * p.L, nu, mu, q0)
    weights = {}
    for c in all_configs(p.L):
        weights[c] = math.exp(nu * c.N + mu * c.M) * q0 ** pi_exponent(c) / y
    return Measure(p.L, weights)


def grandcanonical_mixture(nu: float, mu: float, p: ModelParams) -> Measure:
    """The same measure assembled sector by sector (cross-check form)."""
    q0 = p.q0
    y = rogers_szego_y(2 * p.L, nu, mu, q0)
    weights: dict = {}
    for n in range(2 * p.L + 1):
        for m in range(2 * p.L - n + 1):
            sector = Sector(p.L, n, m)
            z = q_multinomial(2 * p.L, n, m).eval(q0)
            coeff = math.exp(nu * n + mu * m) * z / y
            for c, w in canonical(sector).items():
                weights[c] = coeff * w.eval(q0) / z
    return Measure(p.L, weights)


# ---------------------------------------------------------------------
# pure single-species measures and shock profiles
# ---------------------------------------------------------------------


def pure_marginal(species: int, chem_pot: float, p: ModelParams, k: int) -> float:
    """Occupation probability of site k under the pure product measure."""
    q0 = p.q0
    if species == A:
        z = math.exp(chem_pot) * q0 ** (2 * k - 1)
    elif species == B:
        z = math.exp(chem_pot) * q0 ** (1 - 2 * k)
    else:
        raise ValueError("species must be A or B")
    return z / (1.0 + z)


def pure_measure(species: int, chem_pot: float, p: ModelParams) -> Measure:
    """Single-species fugacity mixture; a product measure over sites."""
    if species not in (A, B):
        raise ValueError("species must be A or B")
    q0 = p.q0
    x = rogers_szego_x(2 * p.L, chem_pot, q0)
    weights = {}
    for c in all_configs(p.L):
        if species == A and c.M == 0:
            weights[c] = math.exp(chem_pot * c.N) * q0 ** pi_exponent(c) / x
        elif species == B and c.N == 0:
            weights[c] = math.exp(chem_pot * c.M) * q0 ** pi_exponent(c) / x
    return Measure(p.L, weights)


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


def pi_hat(L: int) -> SparseMatrix:
    """Diagonal matrix of reversible weights on the full basis."""
    return SparseMatrix.diagonal([pi_unnormalized(c) for c in all_configs(L)])


def check_reversibility(H: SparseMatrix, L: int) -> Report:
    """Detailed balance as the exact matrix identity H P = P H^T."""
    report = Report()
    P = pi_hat(L)
    matrix_is_zero(report, f"L{L}:detailed-balance", H @ P - P @ H.transpose())
    return report


def check_partition_functions(l_max: int) -> Report:
    """Sector weight sums against the Gaussian trinomials, exactly."""
    report = Report()
    for L in range(1, l_max + 1):
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


def check_uniqueness(p: ModelParams, L: int, tol: float = 1e-10) -> Report:
    """Each sector kernel is one-dimensional and canonical."""
    report = Report()
    q0 = p.q0
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
                [] if residual < tol and diff < tol
                else [f"residual {residual:g} diff {diff:g}"],
            )
    return report


def check_grandcanonical_stationarity(
    p: ModelParams, nus=(-1.0, 0.0, 1.0), mus=(-1.0, 0.0, 1.0), tol: float = 1e-12
) -> Report:
    """Fugacity mixtures are killed by the float generator, grid-wise.

    Also checks that the direct weights and the sector-by-sector mixture
    assemble to the same measure.
    """
    from .generator import build_H

    report = Report()
    H = build_H(p, Ring.FLOAT).to_numpy()
    order = all_configs(p.L)
    for nu in nus:
        for mu in mus:
            measure = grandcanonical(nu, mu, p)
            vec = measure.as_vector(order)
            residual = float(np.max(np.abs(H @ vec)))
            report.check(
                f"L{p.L}:grandcanonical-stationary-nu{nu:g}-mu{mu:g}",
                [] if residual < tol else [f"residual {residual:g}"],
            )
            mix = grandcanonical_mixture(nu, mu, p).as_vector(order)
            report.check(
                f"L{p.L}:grandcanonical-mixture-form-nu{nu:g}-mu{mu:g}",
                [] if float(np.max(np.abs(mix - vec))) < tol else ["forms disagree"],
            )
    return report


def check_shock_agreement(
    L: int, q_values=None, nus=(-1.0, 0.0, 1.0), tol: float = 1e-10
) -> Report:
    """Closed tanh profiles against mixture-computed densities."""
    report = Report()
    q_list = [Fraction(2), Fraction(6, 5)] if q_values is None else q_values
    for q in q_list:
        p = ModelParams.from_qw(L, q)
        for nu in nus:
            for species, tag in ((A, "A"), (B, "B")):
                measure = pure_measure(species, nu, p)
                profile = shock_profile(species, nu, p)
                worst = 0.0
                for k in sites(L):
                    mixture = sum(
                        w for c, w in measure.items() if c.state(k) == species
                    )
                    closed = profile.density(k)
                    marg = pure_marginal(species, nu, p, k)
                    worst = max(worst, abs(mixture - closed), abs(marg - closed))
                report.check(
                    f"L{L}:shock-profile-{tag}-q{float(q):g}-nu{nu:g}",
                    [] if worst < tol else [f"max deviation {worst:g}"],
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
    bad = []
    for n in range(2 * L + 1):
        for m in range(2 * L - n + 1):
            for sites_tuple in pairs:
                for tag, species, pure in (
                    ("A", A, Sector(L, n, 0)),
                    ("B", B, Sector(L, 0, m)),
                ):
                    s, z = ring_moment(Sector(L, n, m), sites_tuple, species)
                    s0, z0 = ring_moment(pure, sites_tuple, species)
                    if s * z0 != s0 * z:
                        bad.append((tag, n, m, sites_tuple))
    report.check(f"L{L}:moment-independence", bad)
    return report


def ring_moment(sector: Sector, sites_tuple: tuple[int, ...], species: int) -> tuple:
    """Unnormalised sector moment of a product of occupation numbers.

    Returns (weighted sum, partition function) so callers can compare
    moments across sectors by cross-multiplication without division.
    """
    total = LaurentPoly.zero()
    for c in enumerate_sector(sector):
        ind = 1
        for k in sites_tuple:
            ind *= c.a(k) if species == A else c.b(k)
        if ind:
            total = total + pi_unnormalized(c)
    return total, q_multinomial(2 * sector.L, sector.N, sector.M)


# ---------------------------------------------------------------------
# CSV emitters
# ---------------------------------------------------------------------


def write_profile_csv(fh, rows) -> None:
    fh.write("site,density\n")
    for k, density in rows:
        fh.write(f"{k},{density!r}\n")


def write_measure_csv(fh, measure: Measure) -> None:
    fh.write("config,weight\n")
    for c in sorted(measure.support(), key=Config.ternary_index):
        w = measure.weights[c]
        text = str(w) if isinstance(w, LaurentPoly) else repr(float(w))
        fh.write(f"{c.text()},{text}\n")
