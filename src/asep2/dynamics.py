"""Time evolution: uniformized kernels, the batch sampler, the law of eta_t.

The kernel exp(-H t) is a Poisson-weighted power series in the
column-stochastic, entrywise nonnegative P = I - H/lam (uniformization),
so no term cancels another; it is summed at a scaled horizon and squared.

There is one sampler: `_final_blocks`, the uniformized chain run on
blocks of BLOCK occupation rows with rates from `generator.rate_table`.
Block b draws from the counter-based Philox stream keyed (seed, b)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
so a run depends only on (seed, trajectories).  Final rows are counted
by their `lattice.encode` codes.  Dual coordinate sets z are `Config`s
of the same lattice.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .duality import qz_value
from .generator import ModelParams, Ring, build_H_sector, rate_table
from .lattice import Config, Sector, decode, encode, enumerate_sector
from .measures import Measure
from .sparse import SparseMatrix

TAIL_TOL = 1e-14
SCALE_MU = 16.0  # largest rate-time product summed without squaring
MAX_SQUARINGS = 10  # squarings the plan may add: lam t = 1e4 takes as many
STORED_POWERS = 3  # powers of P kept by the Paterson-Stockmeyer series
BLOCK = 4096  # trajectories per Philox stream


@dataclass(frozen=True)
class TransitionKernel:
    """Matrix of transition probabilities: entry [target, source]."""

    matrix: np.ndarray


def _poisson_weights(mu: float, tol: float) -> list[float]:
    """Poisson(mu) weights w_0, w_1, ... by w_k = w_(k-1) mu/k, cut once
    the summed weight is within tol of one or, for k + 2 > mu, the
    geometric tail bound w_k mu/(k+1) / (1 - mu/(k+2)) is below tol; the
    bound ignores rounding in the sum, so the list always ends.  Needs
    mu <= SCALE_MU, so that exp(-mu) cannot underflow."""
    weights = [math.exp(-mu)]
    cum = weights[0]
    k = 0
    while 1.0 - cum >= tol and not (
        k + 2 > mu and weights[k] * mu / (k + 1) / (1.0 - mu / (k + 2)) < tol
    ):
        k += 1
        weights.append(weights[k - 1] * mu / k)
        cum += weights[k]
    return weights


def _product_count(s: int, weights: list[float]) -> int:
    """Dense products of `evolve` at s squarings: the powers P^2..P^p,
    p = min(STORED_POWERS, len(weights)), the Horner steps in P^p, and s."""
    m = len(weights)
    p = min(STORED_POWERS, m)
    return s + (p - 1) + (math.ceil(m / p) - 1)


def _squaring_plan(lam_t: float) -> tuple[int, list[float]]:
    """The squaring count s and the series weights at lam t/2^s that need
    the fewest dense products, the fewer squarings on a tie.  Candidates
    run from s0, the least s with lam t/2^s <= SCALE_MU, to
    max(s0, MAX_SQUARINGS); the tail tolerance at s is TAIL_TOL/2^s."""
    s0 = max(0, math.ceil(math.log2(lam_t / SCALE_MU)))
    plans = [
        (s, _poisson_weights(math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -s)))
        for s in range(s0, max(s0, MAX_SQUARINGS) + 1)
    ]
    return min(plans, key=lambda plan: _product_count(*plan))


def _power_series(p: np.ndarray, weights: list[float]) -> np.ndarray:
    """sum_k weights[k] p^k by Paterson-Stockmeyer: Horner's rule in p^b
    over blocks of b coefficients, b = min(STORED_POWERS, len(weights))."""
    n = p.shape[0]
    powers = [p]
    while len(powers) < min(STORED_POWERS, len(weights)):
        powers.append(powers[-1] @ p)
    size = len(powers)
    blocks = [weights[i : i + size] for i in range(0, len(weights), size)]
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
    at t/2^s by Paterson & Stockmeyer (SIAM J. Comput. 2, 1973), then
    squared s times (Higham, "The scaling and squaring method for the
    matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005).
    As in Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011), s is the one
    that needs the fewest dense products (`_squaring_plan`): between s0,
    the least s with mu = lam t/2^s <= SCALE_MU, and MAX_SQUARINGS, each
    candidate's weights cut at the tail tolerance TAIL_TOL/2^s
    (`_poisson_weights`).  MAX_SQUARINGS = 10 is the s that lam t = 1e4
    takes at s0, where the bound below is stated; past lam t = 16 * 2^10
    the plan is s0.  Column sums are within 1e-12 of one for lam t <= 1e4
    on the tested sectors (L <= 4; at most 5.2e-13 on the benchmark's
    kernels, 3.5e-13 at s0 alone); beyond that the error grows like 2^s
    times the unit roundoff.
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
    s, weights = _squaring_plan(lam_t)
    p /= -lam
    p.flat[:: n + 1] += 1.0
    out, buf = _power_series(p, weights), p  # P is spent: square into it
    for _ in range(s):
        np.matmul(out, out, out=buf)
        out, buf = buf, out
    return TransitionKernel(out)


# ---------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------


def _support_arrays(p0: Measure):
    """Occupations of p0's support as int8 rows, and its cumulative weights."""
    configs = sorted(p0.support(), key=attrgetter("index"))
    cdf = np.cumsum([float(p0.weights[c]) for c in configs])
    if not math.isclose(cdf[-1], 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("initial distribution must be normalised")
    return np.array([c.occ for c in configs], dtype=np.int8), cdf


def _final_blocks(p0: Measure, t: float, trajectories: int, seed: int, p: ModelParams):
    """Final occupations of `trajectories` paths, one (n, 2L) int8 array per block.

    Each path starts from a draw of p0 and makes Poisson(lam t) proposals,
    lam = (2L - 1) max(r, l), each a uniform bond exchanged with probability
    rate/max(r, l): the uniformized chain, so eta_t has its exact law.  Rows
    are sorted by proposal count; at each step the last m rows propose.
    """
    starts, cdf = _support_arrays(p0)
    top = float(max(p.r, p.ell))
    accept = np.array(rate_table(p, Ring.FLOAT)) / top
    n_sites = 2 * p.L
    lam_t = (n_sites - 1) * top * t
    for b, first in enumerate(range(0, trajectories, BLOCK)):
        n = min(BLOCK, trajectories - first)
        rng = np.random.Generator(np.random.Philox(key=[seed, b]))
        occ = starts[np.searchsorted(cdf[:-1], rng.random(n), side="right")]
        proposals = np.sort(rng.poisson(lam_t, n))
        flat = occ.reshape(-1)
        for step in range(int(proposals[-1])):
            m = n - int(np.searchsorted(proposals, step, side="right"))
            left = np.arange((n - m) * n_sites, n * n_sites, n_sites)
            left += rng.integers(n_sites - 1, size=m)
            s1, s2 = flat[left], flat[left + 1]
            swap = rng.random(m) < accept[s1, s2]
            hit = left[swap]
            flat[hit], flat[hit + 1] = s2[swap], s1[swap]
        yield occ


# ---------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class QEstimate:
    mean: float
    stderr: float
    n: int


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
    a grid of observables reuses the same sampled paths; each distinct
    final configuration is evaluated once, weighted by its frequency.
    Rows are counted by `lattice.encode` of the reversed row, whose order
    is the rows' lexicographic order.
    """
    counts: Counter = Counter()
    for occ in _final_blocks(p0, t, trajectories, seed, p):
        codes, hits = np.unique(encode(occ[:, ::-1]), return_counts=True)
        rows = decode(codes, p.L)[:, ::-1]
        counts.update(dict(zip(map(tuple, rows.tolist()), hits.tolist())))
    n = trajectories
    sample = Measure(p.L, {Config(p.L, occ): c for occ, c in counts.items()})
    moments = [q_moments(z, sample, p.q0) for z in zs]
    return [QEstimate(m, math.sqrt(var / max(1, n - 1)), n) for m, var in moments]


def q_moments(z: Config, law: Measure, q0: float) -> tuple[float, float]:
    """Mean and variance of the duality product Q_z under float weights,
    normalised by their sum (a law, or the counts of a sample)."""
    values = [(w, qz_value(z, eta.occ, q0)) for eta, w in law.items()]
    total = sum(w for w, _ in values)
    mean = sum(w * v for w, v in values) / total
    return mean, max(0.0, sum(w * (v - mean) ** 2 for w, v in values) / total)


def law_at(p0: Measure, t: float, p: ModelParams) -> Measure:
    """Exact law of eta_t: each sector's part of p0 evolved by its kernel."""
    weights = {}
    for n, m in sorted({(c.N, c.M) for c in p0.support()}):
        sector = Sector(p.L, n, m)
        configs = enumerate_sector(sector)
        kernel = evolve(build_H_sector(p, sector, Ring.FLOAT), t).matrix
        weights.update(zip(configs, (kernel @ p0.as_vector(configs)).tolist()))
    return Measure(p.L, weights)


def duality_rhs(zs: list[Config], p0: Measure, t: float, p: ModelParams) -> list[float]:
    """Duality predictions for the time-dependent means of the products.

    The initial-time means of Q_zc, for every zc in the sectors of zs,
    evolved as a law of those sectors: the expectation propagates through
    the dynamics of N(z) + M(z) particles only, one kernel per sector.
    """
    sectors = sorted({(z.N, z.M) for z in zs})
    zcs = [zc for n, m in sectors for zc in enumerate_sector(Sector(p.L, n, m))]
    means = Measure(p.L, {zc: q_moments(zc, p0, p.q0)[0] for zc in zcs})
    law = law_at(means, t, p).weights
    return [law[z] for z in zs]
