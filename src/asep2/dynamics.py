"""Time evolution: uniformized transition kernels and the Gillespie sampler.

The kernel exp(-H t) is a Poisson-weighted power series in the
column-stochastic, entrywise nonnegative P = I - H/lam (uniformization),
so no term cancels another; it is summed at a scaled horizon and squared.

There is one sampler: `_run_occ`, a Gillespie jump loop on a raw
occupation list that reads its bond rates from `generator.rate_table`.
`estimate_Q_many` runs it on counter-based Philox streams keyed by
(master seed, trajectory index), so every trajectory is reproducible bit
for bit and trivially parallel.  Its dual coordinate sets z, like the
one `duality_rhs` predicts for, are `Config`s of the same lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import qz_value
from .generator import ModelParams, Ring, build_H_sector, rate_table
from .lattice import Config, Sector, enumerate_sector
from .measures import Measure
from .sparse import SparseMatrix

TAIL_TOL = 1e-14
SCALE_MU = 16.0  # largest rate-time product summed without squaring
STORED_POWERS = 3  # powers of P kept by the Paterson-Stockmeyer series


@dataclass(frozen=True)
class TransitionKernel:
    """Matrix of transition probabilities: entry [target, source]."""

    matrix: np.ndarray


def _power_series(p: np.ndarray, weights: list[float]) -> np.ndarray:
    """sum_k weights[k] p^k by Paterson-Stockmeyer: Horner's rule in
    p^STORED_POWERS over blocks of STORED_POWERS coefficients."""
    n = p.shape[0]
    powers = [p]
    while len(powers) < STORED_POWERS:
        powers.append(powers[-1] @ p)
    blocks = [
        weights[i : i + STORED_POWERS] for i in range(0, len(weights), STORED_POWERS)
    ]
    out = np.zeros_like(p)
    buf = np.empty_like(p)
    for j, block in enumerate(reversed(blocks)):
        if j:
            np.matmul(out, powers[-1], out=buf)
            out, buf = buf, out
        for w, pk in zip(block[1:], powers):
            np.multiply(pk, w, out=buf)
            out += buf
        out.flat[:: n + 1] += block[0]
    return out


def evolve(op: SparseMatrix, t: float) -> TransitionKernel:
    """exp(-H t) for a float generator by uniformization.

    With lam the largest exit rate, exp(-H t) = sum_k w_k P^k for
    P = I - H/lam and Poisson(lam t) weights w_k.  The series is summed
    at t/2^s, with s the least such that mu = lam t/2^s <= SCALE_MU, by
    Paterson & Stockmeyer (SIAM J. Comput. 2, 1973), then squared s times
    (Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26, 2005).  It stops once the
    summed weight is within TAIL_TOL/2^s of one or, for k + 2 > mu, the
    geometric tail bound w_k mu/(k+1) / (1 - mu/(k+2)) is below it; the
    bound ignores rounding in the sum, so the series always ends.  Column
    sums are within 1e-12 of one for lam t <= 1e4 on the tested sectors
    (L <= 4); beyond that the error grows like 2^s times the unit roundoff.
    """
    p = op.to_numpy()
    n = p.shape[0]
    lam = float(np.max(np.diag(p))) if n else 0.0
    lam_t = lam * t
    if not (t >= 0 and math.isfinite(lam_t)):
        raise ValueError(
            f"time must be nonnegative with a finite rate-time product, got t={t!r}"
        )
    if lam_t == 0.0:
        return TransitionKernel(np.eye(n))
    s = max(0, math.ceil(math.log2(lam_t / SCALE_MU)))
    mu, tol = math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -s)
    weights = [math.exp(-mu)]  # mu <= SCALE_MU: cannot underflow
    cum = weights[0]
    k = 0
    while 1.0 - cum >= tol and not (
        k + 2 > mu and weights[k] * mu / (k + 1) / (1.0 - mu / (k + 2)) < tol
    ):
        k += 1
        weights.append(weights[k - 1] * mu / k)
        cum += weights[k]
    p /= -lam
    p.flat[:: n + 1] += 1.0
    out, buf = _power_series(p, weights), p  # P is spent: square into it
    for _ in range(s):
        np.matmul(out, out, out=buf)
        out, buf = buf, out
    return TransitionKernel(out)


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
    zs: list[Config],
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
            v = qz_value(z, occ, q0)
            sums[j] += v
            sumsq[j] += v * v
    out = []
    n = trajectories
    for j in range(len(zs)):
        mean = sums[j] / n
        var = max(0.0, (sumsq[j] / n - mean * mean) * n / max(1, n - 1))
        out.append(QEstimate(mean=mean, stderr=math.sqrt(var / n), n=n))
    return out


def duality_rhs(z: Config, p0: Measure, t: float, p: ModelParams) -> float:
    """Duality prediction for the time-dependent mean of the product.

    Builds the few-particle sector kernel for the dual coordinates and
    contracts it with the initial-time means: the expectation propagates
    through the dynamics of N(z) + M(z) particles only.
    """
    sector = Sector(p.L, z.N, z.M)
    configs = enumerate_sector(sector)
    kernel = evolve(build_H_sector(p, sector, Ring.FLOAT), t).matrix
    q0 = p.q0
    row = configs.index(z)
    total = 0.0
    for j, zc in enumerate(configs):
        init = sum(w * qz_value(zc, eta.occ, q0) for eta, w in p0.items())
        total += init * kernel[row, j]
    return total
