"""Time evolution: uniformized transition kernels and the Gillespie sampler.

The kernel exp(-H t) is computed by uniformization: with a rate bound
no smaller than the largest exit rate, the generator is traded for a
column-stochastic matrix and the exponential becomes a Poisson-weighted
power series, which preserves probability structure term by term.
Poisson weights are evaluated in log space so horizons with a large
rate-time product (the ergodic-limit checks use t = 1e3) do not
underflow; the leading negligible powers are skipped with one binary
matrix power, and the series stops once its Poisson tail is below 1e-14.

There is one sampler: `_run_occ`, a Gillespie jump loop on a raw
occupation list that reads its bond rates from `generator.rate_table`.
`estimate_Q_many` runs it on counter-based Philox streams keyed by
(master seed, trajectory index), so every trajectory is reproducible bit
for bit and trivially parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import qz_value
from .generator import ModelParams, Ring, build_H_sector, rate_table
from .lattice import Config, Positions, Sector, enumerate_sector
from .measures import Measure
from .sparse import SparseMatrix

TAIL_TOL = 1e-14


@dataclass(frozen=True)
class TransitionKernel:
    """Matrix of transition probabilities: entry [target, source]."""

    matrix: np.ndarray

    def column_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=0) - 1.0)))


def evolve(op: SparseMatrix, t: float) -> TransitionKernel:
    """exp(-H t) for a float generator by uniformization.

    Sums Poisson-weighted powers until the Poisson tail mass is below
    TAIL_TOL: either the accumulated weight is within TAIL_TOL of one, or,
    once the weight ratios mu/(k+1) have fallen below one, the geometric
    bound w_k mu/(k+1) / (1 - mu/(k+2)) on the tail is.  The bound does
    not depend on rounding in the accumulated weight, so the loop always
    ends (Moler & Van Loan, "Nineteen dubious ways to compute the
    exponential of a matrix, twenty-five years later", SIAM Rev. 2003).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    a = op.to_numpy()
    n = a.shape[0]
    lam = float(np.max(np.diag(a))) if n else 0.0
    mu = lam * t
    if mu == 0.0:
        return TransitionKernel(np.eye(n))
    p = np.eye(n) - a / lam

    # powers below k_lo carry no Poisson mass at double precision
    k_lo = max(0, int(mu - 12.0 * math.sqrt(mu) - 30.0))
    pk = np.linalg.matrix_power(p, k_lo) if k_lo else np.eye(n)
    out = np.zeros_like(pk)
    log_mu = math.log(mu)
    cum = 0.0
    k = k_lo
    while True:
        w = math.exp(-mu + k * log_mu - math.lgamma(k + 1))
        if w > 0.0:
            out += w * pk
            cum += w
        if 1.0 - cum < TAIL_TOL or (
            k + 2 > mu and w * mu / (k + 1) / (1.0 - mu / (k + 2)) < TAIL_TOL
        ):
            return TransitionKernel(out)
        pk = p @ pk
        k += 1


# ---------------------------------------------------------------------
# Gillespie sampling
# ---------------------------------------------------------------------


def _run_occ(occ: list, table, n_sites: int, t: float, t_end: float, rng) -> float:
    """Hot trajectory loop on a raw occupation list (mutated in place)."""
    exponential = rng.exponential
    uniform = rng.random
    while True:
        rates = [table[occ[i]][occ[i + 1]] for i in range(n_sites - 1)]
        total = sum(rates)
        if total == 0.0:
            return t_end
        dt = exponential(1.0 / total)
        u = uniform() * total
        if t + dt > t_end:
            return t_end
        t += dt
        acc = 0.0
        for i, rate in enumerate(rates):
            acc += rate
            if u < acc or i == n_sites - 2:
                occ[i], occ[i + 1] = occ[i + 1], occ[i]
                break


# ---------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class QEstimate:
    mean: float
    stderr: float
    n: int


def _support_arrays(p0: Measure):
    configs = sorted(p0.support(), key=Config.ternary_index)
    probs = np.array([float(p0.weights[c]) for c in configs])
    total = probs.sum()
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("initial distribution must be normalised")
    return configs, np.cumsum(probs)


def estimate_Q_many(
    zs: list[Positions],
    p0: Measure,
    t: float,
    trajectories: int,
    seed: int,
    p: ModelParams,
) -> list[QEstimate]:
    """Monte-Carlo means of the duality products over shared trajectories.

    Every trajectory is evaluated against all coordinate sets at once, so
    a grid of observables reuses the same sampled paths.
    """
    q0 = p.q0
    table = rate_table(p, Ring.FLOAT)
    n_sites = 2 * p.L
    configs, cdf = _support_arrays(p0)
    sums = [0.0] * len(zs)
    sumsq = [0.0] * len(zs)
    for i in range(trajectories):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        u = rng.random()
        occ = list(configs[int(np.searchsorted(cdf, u, side="right"))].occ)
        _run_occ(occ, table, n_sites, 0.0, t, rng)
        for j, z in enumerate(zs):
            v = qz_value(z, occ, p.L, q0)
            sums[j] += v
            sumsq[j] += v * v
    out = []
    n = trajectories
    for j in range(len(zs)):
        mean = sums[j] / n
        var = max(0.0, (sumsq[j] / n - mean * mean) * n / max(1, n - 1))
        out.append(QEstimate(mean=mean, stderr=math.sqrt(var / n), n=n))
    return out


def duality_rhs(z: Positions, p0: Measure, t: float, p: ModelParams) -> float:
    """Duality prediction for the time-dependent mean of the product.

    Builds the few-particle sector kernel for the dual coordinates and
    contracts it with the initial-time means: the expectation propagates
    through the dynamics of N(z) + M(z) particles only.
    """
    sector = Sector(p.L, z.N, z.M)
    configs = enumerate_sector(sector)
    kernel = evolve(build_H_sector(p, sector, Ring.FLOAT), t).matrix
    q0 = p.q0
    row = configs.index(z.to_config())
    total = 0.0
    for j, zc in enumerate(configs):
        zj = zc.to_positions()
        init = sum(
            w * qz_value(zj, eta.occ, p.L, q0) for eta, w in p0.items()
        )
        total += init * kernel[row, j]
    return total
