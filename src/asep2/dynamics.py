"""Time evolution: the uniformized series, the batch sampler, the law of eta_t.

The kernel exp(-H t) is a Poisson-weighted power series in the
column-stochastic, entrywise nonnegative P = I - H/lam (uniformization),
so no term cancels another.  `evolve` sums the series in the symmetric
S = D^-1 P D, D = diag(sqrt(pi)) for the reversible weights pi read off
the generator's rates, filled from H's terms; it squares the dense result
by x x^T products and transforms back.  On an N = M sector, S commutes
with the mirror J (sites reversed, A and B exchanged), and from
`fold.PANEL_MIN_DIM` states on `evolve` keeps S folded over J's orbits,
(f + m) x n for f fixed states and m pairs, so each product is about
half as much work; it checks that H commutes with J exactly first, and
with no pairs the fold is S and the arithmetic that of the unfolded S.
`evolve_vector` applies the series in P to one vector, a chunk of the
scaled horizon at a time, with one `np.bincount` over P's terms per
product.  The law of eta_t and the duality predictions apply exp(-H t)
to one vector per sector and time, by whichever of
`evolve(op, t).matrix @ v` and `evolve_vector` costs less (`plan`, which
prices both in term products): the vector series' work grows like lam t,
the dense kernel's like dim^3 log(lam t), and the dense side stops at
DENSE_MAX_DIM rows.  `evolve` keeps the symmetrized square of the last
operator it evolved, so a later horizon on that operator whose plan
shares the series squares that square further instead of summing the
series again.  Every squaring plan cuts its series at one tail
tolerance, so below MAX_SQUARINGS the plans at t and 2^k t share one
series.

There is one sampler: `_final_blocks`, the uniformized chain run on
blocks of BLOCK occupation rows, each proposed bond exchanged at the rate
of its `generator.BOND_SIGN`, whose proposals and steps `sampler_work`
counts.  Block b draws from its own SFC64 stream (numpy's Small Fast
Chaotic generator, after Doty-Humphrey's PractRand) seeded by
`np.random.SeedSequence([seed, b])`, so a run depends only on (seed,
trajectories) and a longer run only appends blocks.  Each proposal takes
one uniform u: the integer part of u (2L - 1) is its bond and the
fractional part its acceptance draw (`_bond_draws`).  The initial law
p0 is a float `measures.Measure`, read as its rows and weights; final
rows are counted by their `lattice.encode` codes.  Dual coordinate sets
z are `Config`s of the same lattice; the moments of Q_z are taken over
occupation rows by `duality.q_values`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import fold
from .duality import q_values
from .generator import BOND_SIGN, ModelParams, Ring, build_H_sector, rate_by_sign
from .lattice import A, B, Config, Sector, config_rows, decode, encode, sector_occupations
from .measures import Measure, spread
from .sparse import SparseMatrix

TAIL_TOL = 1e-14
SCALE_MU = 16.0  # largest rate-time product summed without squaring
MAX_SQUARINGS = 10  # squarings the plan may add: lam t = 1e4 takes as many
STORED_POWERS = 3  # powers of P kept by the Paterson-Stockmeyer series
BLOCK = 4096  # trajectories per SFC64 stream
# the cost of a dense product x x^T (BLAS syrk, one triangle) against a
# general one (gemm): 0.56-0.61 at dim 140-560 on one thread
SYRK_COST = 0.6
# the cost of a symmetric product formed in row panels
# (`fold.symmetric_product`) against a gemm: 0.80-0.81 at dim 420-560
PANEL_COST = 0.8
# a reversible generator's rates meet Kolmogorov's criterion to this
# relative tolerance, well above the rounding of the spread weights
REVERSIBLE_TOL = 1e-10
# the fixed numpy cost of one sparse product by P, counted in terms: about
# 3 us a call against 4.5 ns a term (measured on sectors of L = 1..19)
PRODUCT_CALL_TERMS = 700
# the dense side of `plan`: `evolve` on at most DENSE_MAX_DIM rows
# (the benchmark's largest kernel), costed in terms as EVOLVE_CALL_TERMS a
# call, DENSE_ENTRY_TERMS an entry and dim^3/GEMM_TERM_CUBES a general
# product; fitted on one thread to `evolve(op, t).matrix @ v` against
# `evolve_vector` on every sector of dim <= 560 at L <= 5, t = 0.25..1000
# (0.23 ms a call, 42 ns an entry, 31 ps per dim^3 against 3.9 ns a term)
DENSE_MAX_DIM = 560
EVOLVE_CALL_TERMS = 60_000
DENSE_ENTRY_TERMS = 11
GEMM_TERM_CUBES = 125


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


def _scaled_horizon(lam_t: float) -> int:
    """s0, the least s >= 0 with lam t/2^s <= SCALE_MU: where `evolve`'s
    squaring plan starts, and the chunk count 2^s0 of `evolve_vector`.
    s0 = 0 takes no log: at a subnormal lam t, lam t/SCALE_MU may be 0."""
    return 0 if lam_t <= SCALE_MU else math.ceil(math.log2(lam_t / SCALE_MU))


def _product_cost(s: int, weights: list[float]) -> float:
    """Dense-product cost of `evolve` at s squarings, in general products:
    P^2 and the s squarings are x x^T products at SYRK_COST each; the
    powers P^3..P^p, p = min(STORED_POWERS, len(weights)), and the Horner
    steps in P^p are symmetric products at PANEL_COST each."""
    m = len(weights)
    p = min(STORED_POWERS, m)
    syrk = s + (p > 1)
    return SYRK_COST * syrk + PANEL_COST * (max(0, p - 2) + math.ceil(m / p) - 1)


@lru_cache(maxsize=64)
def _squaring_plan(lam_t: float) -> tuple[int, list[float]]:
    """The squaring count s and the series weights at lam t/2^s of the
    least dense-product cost (`_product_cost`), the fewer squarings on a
    tie.  Candidates run from s0, the least s with lam t/2^s <= SCALE_MU,
    to max(s0, MAX_SQUARINGS), and every one is cut at the one tail
    tolerance TAIL_TOL/2^max(s0, MAX_SQUARINGS): s squarings lose at most
    2^s times that, at most TAIL_TOL.  So the weights depend on mu =
    lam t/2^s alone, the cost at (2 lam t, s + 1) is that at (lam t, s)
    and one syrk, and below the cap the plan at 2 lam t is the plan at
    lam t with one more squaring, which `evolve` resumes.  Cached: `plan`
    and `evolve` plan the same lam t in turn, and callers only read the
    weights."""
    s0 = _scaled_horizon(lam_t)
    cap = max(s0, MAX_SQUARINGS)
    plans = [
        (s, _poisson_weights(math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -cap)))
        for s in range(s0, cap + 1)
    ]
    return min(plans, key=lambda plan: _product_cost(*plan))


def _rate_time(op: SparseMatrix, t: float) -> tuple[np.ndarray, float, float]:
    """The uniformization of a float generator at time t: its exit rates
    (the diagonal), lam, the largest of them (0 when nothing moves), and
    lam t; ValueError for a negative t or a product that is not finite."""
    on = op.row == op.col
    exits = np.bincount(op.row[on], op.coeff[on], minlength=op.dim)
    lam = float(exits.max(initial=0.0))
    lam_t = lam * t
    if not (t >= 0 and math.isfinite(lam_t)):
        raise ValueError(
            f"time must be nonnegative with a finite rate-time product, got t={t!r}"
        )
    return exits, lam, lam_t


def _power_series(p: np.ndarray, weights: list[float]) -> np.ndarray:
    """sum_k weights[k] p^k for a folded symmetric p by Paterson-Stockmeyer:
    Horner's rule in p^b over blocks of b coefficients,
    b = min(STORED_POWERS, len(weights)); p^2 is formed by `fold.square`,
    p^3 and the Horner steps by `fold.product`.  The identity's entries
    in a fold are its diagonal from the corner."""
    n = p.shape[1]
    powers = [p]
    while len(powers) < min(STORED_POWERS, len(weights)):
        if len(powers) == 1:
            powers.append(fold.square(p, np.empty_like(p)))
        else:
            powers.append(fold.product(powers[-1], p, np.empty_like(p)))
    size = len(powers)
    blocks = [weights[i : i + size] for i in range(0, len(weights), size)]
    out = np.zeros_like(p)
    buf = np.empty_like(p)
    for j, block in enumerate(reversed(blocks)):
        if j:
            out, buf = fold.product(out, powers[-1], buf), out
        for w, pk in zip(block[1:], powers):
            np.multiply(pk, w, out=buf)
            out += buf
        out.flat[:: n + 1] += block[0]
    return out


def _detailed_balance(op: SparseMatrix):
    """The off-diagonal terms (row, col) of a float generator, with
    sqrt(H_rc H_cr) for each, and sqrt(pi) for reversible weights pi read
    off the rates: sqrt(pi_r/pi_c) = sqrt(H_rc/H_cr) along each term,
    spread from the first row of each communicating class (weight 1) by
    `measures.spread`.

    ValueError when a term has no reverse of its sign, or when the rates
    break Kolmogorov's criterion (a cycle's rate product differs from its
    reverse's), seen as a term whose weights miss pi_c H_rc = pi_r H_cr
    by more than REVERSIBLE_TOL relative."""
    dim = op.dim
    off = op.row != op.col
    row, col, coeff = op.row[off], op.col[off], op.coeff[off]
    keys, reverse = row * dim + col, col * dim + row  # keys ascend: normal form
    at = np.minimum(np.searchsorted(keys, reverse), max(len(keys) - 1, 0))
    back = np.where(keys[at] == reverse, coeff[at], 0.0)
    one_way = np.flatnonzero(~(coeff * back > 0))
    if len(one_way):
        i = one_way[0]
        raise ValueError(
            f"not reversible: the term ({row[i]}, {col[i]}) has no reverse of its sign"
        )
    gain = np.sqrt(coeff / back)
    root, done = np.zeros(dim), np.zeros(dim, bool)
    while not done.all():
        reached, value = spread(dim, col, row, gain, int(np.argmin(done)))
        root[reached], done = value[reached], done | reached
    skewed = np.flatnonzero(~(np.abs(root[row] / (root[col] * gain) - 1.0) <= REVERSIBLE_TOL))
    if len(skewed):
        i = skewed[0]
        raise ValueError(
            f"not reversible: a cycle through the term ({row[i]}, {col[i]}) "
            "breaks Kolmogorov's criterion"
        )
    return row, col, np.sqrt(coeff * back), root


def _orbits(op: SparseMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fixed, low, high) of op's attached mirror J (`generator._gather`
    attaches `lattice.mirror` to float generators): the fixed states, and
    the pairs low[i] < high[i] = J(low[i]), each ascending.  J is used only
    on at least `fold.PANEL_MIN_DIM` states, where the fold's half-size
    products save more than their extra numpy calls cost (L3 (2,2), dim
    90: 0.55 ms unfolded against 0.68 ms folded), and when it is an
    involution and H's terms equal their relabelling by J exactly (value
    for value); otherwise every state is fixed.  Every generator
    `_gather` builds passes that check at any rates; it guards a mirror
    attached to other terms through `SparseMatrix.from_arrays`."""
    j = op.mirror
    if j is None or op.dim < fold.PANEL_MIN_DIM or not (
        np.array_equal(j[j], np.arange(op.dim))
        and SparseMatrix.from_arrays(op.dim, j[op.row], j[op.col], op.h, op.coeff) == op
    ):
        j = None
    return fold.orbits(op.dim, j)


class _Slot:
    """What `evolve` keeps of the last operator it evolved, one of at most
    DENSE_MAX_DIM rows: the operator, its `_orbits`, its
    `_detailed_balance` terms with sqrt(pi), and its folded result before
    D E D^-1 as square = ((mu, weights), fold, squarings), or None."""

    op = orbits = balance = square = None

    @classmethod
    def cache_clear(cls):
        cls.op = cls.orbits = cls.balance = cls.square = None

    @classmethod
    def take(cls, op, key, s: int):
        """(orbits, balance, stored) for a call on op.  Another operator
        empties the slot, and op takes it on at most DENSE_MAX_DIM rows;
        the slot's operator keeps its orbits and balance.  stored is
        (fold, squarings) when op's square was kept at the same (mu,
        weights) and at most s squarings, else None; the square leaves
        the slot either way, so no series runs beside a fold."""
        if op is not cls.op:
            cls.cache_clear()
            orbits, balance = _orbits(op), _detailed_balance(op)
            if op.dim <= DENSE_MAX_DIM:
                cls.op, cls.orbits, cls.balance = op, orbits, balance
            return orbits, balance, None
        square, cls.square = cls.square, None
        hit = square is not None and square[0] == key and square[2] <= s
        return cls.orbits, cls.balance, square[1:] if hit else None


def evolve(op: SparseMatrix, t: float) -> TransitionKernel:
    """exp(-H t) for a reversible float generator by uniformization.

    With lam the largest exit rate (`_rate_time`), exp(-H t) is
    sum_k w_k P^k for P = I - H/lam and Poisson(lam t) weights w_k.
    Detailed balance makes S = D^-1 P D symmetric and entrywise
    nonnegative, D = diag(sqrt(pi)): off the diagonal sqrt(H_rc H_cr)/lam,
    on it 1 - exit/lam, formed from H's terms (`_detailed_balance`, which
    raises ValueError for a generator that is not reversible).  The series
    in S is summed at t/2^s by Paterson & Stockmeyer (SIAM J. Comput. 2,
    1973), then squared s times (Higham, "The scaling and squaring method
    for the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26,
    2005), and D E D^-1 is formed (`fold.unfold`).

    On at least `fold.PANEL_MIN_DIM` states, the series and the squarings
    run on S folded over the mirror J, and only the returned kernel is
    unfolded (`fold`): with f fixed states and m pairs (l, Jl)
    (`_orbits`, which says when J is used), the fold is the (f + m) x n
    array of S's rows of the fixed and low states, filled straight from
    H's terms (`fold.fill`).  A squaring (`fold.square`) takes about
    0.275 n^3 against 0.6 n^3 for the syrk of S, a series product
    (`fold.product`) about 0.4 n^3 against 0.8 n^3, counting a gemm as
    n^3; at dim 560 on one thread they take 0.65 and 0.62 of the
    unfolded time, since half-size products run less efficiently.  Every
    product and sum adds nonnegative terms, so no entry cancels and none
    turns negative.  With no pairs the fold is S, a squaring is x x^T
    (BLAS syrk), a series product `fold.symmetric_product`, and the
    kernel is scaled in a spent buffer.

    As in Al-Mohy & Higham (SIAM J. Sci. Comput. 33, 2011), s is the one
    of least dense-product cost (`_squaring_plan`, a syrk at SYRK_COST
    and a symmetric product at PANEL_COST of a gemm; the plan prices an
    unfolded S): between s0, the least s with mu = lam t/2^s <= SCALE_MU,
    and max(s0, MAX_SQUARINGS), every candidate's weights cut at the one
    tail tolerance TAIL_TOL/2^max(s0, MAX_SQUARINGS) (`_poisson_weights`),
    so the s squarings lose at most TAIL_TOL.  MAX_SQUARINGS = 10 is the
    s that lam t = 1e4 takes at s0, where the bound below is stated; past
    lam t = 16 * 2^10 the plan is s0.  Column sums are within 1e-12 of
    one for lam t <= 1e4 on the tested sectors (every sector at L <= 4,
    r/l = 2/(1/2) and 7/10 / 3/10, t = 0.25 to 1000: at most 6.0e-13,
    and 4.8e-13 on the benchmark's kernels); beyond that the error
    grows like 2^s times the unit roundoff.  A cold call holds five folds
    (S, its square and cube, the Horner sum and one buffer) and a
    product's half-size temporaries: 3.2 n x n arrays at L4 (3,3), whose
    kernel is a new n x n array; with no pairs, five n x n arrays, one of
    which takes the kernel.

    On at most DENSE_MAX_DIM rows, one slot (`_Slot`; a SparseMatrix is
    read-only) keeps the last operator object evolved, with its orbits,
    its detailed-balance terms and sqrt(pi), and its folded result E with
    mu = lam t/2^s, the weights and s.  A later call on that operator
    reads the orbits and terms from the slot, and resumes when its plan
    has the same mu and weights and at least s squarings: it squares E
    the remaining times and forms neither S nor the series, so its
    kernel is bit for bit that of a cold call.  Below the cap the plan at
    2 lam t is the plan at lam t with one more squaring, so the plans at
    t and 2^k t share a series: L4 (3,3) at t = 0.25, 1 and 4 (mu =
    11/64, 11 weights, 4, 6 and 8 squarings) sums one.  A call on another
    operator empties the slot before its series, so it holds what a cold
    call holds, and a call on the same operator that does not resume
    releases E before its series; a resumed call holds two folds (E and
    one buffer), and with pairs the kernel.  `simulate` evolves its
    sectors in turn at each time, so each of its dense kernels sums its
    series (`--L 3 --t 30,60,120`: 12 series for 12 kernels).  At
    lam t = 0 (t = 0, or a sector with no moves) the kernel is the
    identity and the slot is left as it is.
    """
    exits, lam, lam_t = _rate_time(op, t)
    if lam_t == 0.0:
        _detailed_balance(op)  # a generator that is not reversible raises at t = 0 too
        return TransitionKernel(np.eye(op.dim))
    s, weights = _squaring_plan(lam_t)
    key = (math.ldexp(lam_t, -s), tuple(weights))
    orbits, (row, col, geo_mean, root), stored = _Slot.take(op, key, s)
    if stored is not None:
        out, done = stored
        buf = np.empty_like(out)
    else:
        sym = fold.fill(op.dim, orbits, row, col, geo_mean / lam, 1.0 - exits / lam)
        out, buf, done = _power_series(sym, weights), sym, 0  # S is spent: square into it
    for _ in range(done, s):
        out, buf = fold.square(out, buf), out
    if op is _Slot.op:
        _Slot.square = (key, out, s)
    spare = None if len(orbits[1]) else buf  # a fold with pairs unfolds into a new array
    del buf
    return TransitionKernel(fold.unfold(out, orbits, root, spare))


@lru_cache(maxsize=64)
def _chunk_weights(lam_t: float) -> tuple[int, list[float]]:
    """The scaled horizon s0 of lam t > 0 and the Poisson weights of one
    chunk of `evolve_vector`: mu = lam t/2^s0 at tail tolerance
    TAIL_TOL/2^s0.  Cached like `_squaring_plan`: `plan` and
    `evolve_vector` read the same lam t in turn."""
    s = _scaled_horizon(lam_t)
    return s, _poisson_weights(math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -s))


def evolve_vector(op: SparseMatrix, v, t: float) -> np.ndarray:
    """exp(-H t) v for a float generator, by the series of `evolve`
    applied to the vector (Al-Mohy & Higham, "Computing the action of the
    matrix exponential", SIAM J. Sci. Comput. 33, 2011).

    The horizon is cut into 2^s0 chunks of rate-time mu = lam t/2^s0 <=
    SCALE_MU (s0 as in `_scaled_horizon`), and each chunk sums
    sum_k w_k P^k v with the Poisson(mu) weights of `_poisson_weights` at
    tail tolerance TAIL_TOL/2^s0; P v is a COO product by `np.bincount`
    over P's terms.  P and the weights are nonnegative, so a nonnegative
    v stays nonnegative entry by entry, and the tail cuts lose less than
    TAIL_TOL of its mass.  A sector with no moves (lam = 0) and t = 0
    return a copy of v.
    """
    v = np.array(v, dtype=np.float64)
    exits, lam, lam_t = _rate_time(op, t)
    if lam_t == 0.0:
        return v
    s, weights = _chunk_weights(lam_t)
    # P's terms (target, source, value): H's off-diagonal ones and a full diagonal
    every = np.arange(op.dim)
    off = op.row != op.col
    tgt = np.concatenate([op.row[off], every])
    src = np.concatenate([op.col[off], every])
    value = np.concatenate([op.coeff[off] / -lam, 1.0 - exits / lam])
    for _ in range(1 << s):
        term = v
        v = weights[0] * term
        for w in weights[1:]:
            term = np.bincount(tgt, value * term[src], minlength=op.dim)
            v += w * term
    return v


def _vector_work(op: SparseMatrix, s0: int, products: int) -> float:
    """Work of `evolve_vector` in term products: 2^s0 chunks of `products`
    products by P, each over P's terms (H's off-diagonal ones and a full
    diagonal) plus PRODUCT_CALL_TERMS."""
    terms = int(np.count_nonzero(op.row != op.col)) + op.dim
    return math.ldexp(products, s0) * (terms + PRODUCT_CALL_TERMS)


def _dense_work(dim: int, product_cost: float) -> float:
    """Work of `evolve(op, t).matrix @ v` in term products, at a plan of
    `product_cost` general products (`_product_cost`): EVOLVE_CALL_TERMS,
    DENSE_ENTRY_TERMS per entry and dim^3/GEMM_TERM_CUBES per product."""
    return EVOLVE_CALL_TERMS + DENSE_ENTRY_TERMS * dim**2 + dim**3 / GEMM_TERM_CUBES * product_cost


class Plan(NamedTuple):
    """How exp(-H t) v is formed: by `evolve(op, t).matrix @ v` (dense) or
    by `evolve_vector`, with that path's work in term products."""

    dense: bool
    work: float


def plan(op: SparseMatrix, t: float) -> Plan:
    """The path of the lesser work for exp(-H t) v, the vector series on a
    tie: `_vector_work` of its chunks (`_chunk_weights`) against, up to
    DENSE_MAX_DIM rows, `_dense_work` of the squaring plan
    (`_squaring_plan`).  ValueError as `evolve_vector`."""
    lam_t = _rate_time(op, t)[2]
    if lam_t == 0.0:
        return Plan(False, 0.0)
    s, weights = _chunk_weights(lam_t)
    work = _vector_work(op, s, len(weights) - 1)
    if op.dim <= DENSE_MAX_DIM:
        dense_work = _dense_work(op.dim, _product_cost(*_squaring_plan(lam_t)))
        if dense_work < work:
            return Plan(True, dense_work)
    return Plan(False, work)


def _evolved(op: SparseMatrix, v: np.ndarray, t: float) -> np.ndarray:
    """exp(-H t) v by the path `plan` picks."""
    if plan(op, t).dense:
        return evolve(op, t).matrix @ v
    return evolve_vector(op, v, t)


# ---------------------------------------------------------------------
# batch sampling
# ---------------------------------------------------------------------


def _sampler_rate(p: ModelParams) -> float:
    """lam of the sampler's chain: 2L - 1 bonds, each proposed at max(r, l)."""
    return (2 * p.L - 1) * float(max(p.r, p.ell))


def sampler_work(p: ModelParams, trajectories: int, ts: list[float]) -> tuple[float, float]:
    """(proposals, steps) of sampling at each time of ts: the expected start
    draws and jump proposals, and the steps of the blocks' longest paths."""
    rate = _sampler_rate(p)
    proposals = trajectories * (len(ts) + rate * sum(ts))
    steps = math.ceil(trajectories / BLOCK) * rate * sum(ts)
    return proposals, steps


def _bond_draws(u: np.ndarray, bonds: int) -> tuple[np.ndarray, np.ndarray]:
    """The proposed bond and the acceptance draw of each uniform u in
    [0, 1): the integer and fractional parts of u * bonds.  Subtracting
    the integer part is exact, so the fraction is in [0, 1), and for odd
    `bonds` (2L - 1) the largest double below 1 still maps to bond
    bonds - 1; the two parts are uniform and independent up to the
    2^-53 grid of u."""
    scaled = u * bonds
    bond = scaled.astype(np.intp)  # the floor: scaled >= 0
    scaled -= bond
    return bond, scaled


def _final_blocks(p0: Measure, t: float, trajectories: int, seed: int, p: ModelParams):
    """Final occupations of `trajectories` paths, one (n, 2L) int8 array per block.

    Each path starts from a draw of p0 and makes Poisson(lam t) proposals,
    lam = (2L - 1) max(r, l), each a uniform bond exchanged with probability
    rate/max(r, l): the uniformized chain, so eta_t has its exact law.  A
    proposal's bond and acceptance draw come from one uniform
    (`_bond_draws`).  Rows are sorted by proposal count; at step k the last
    alive[k] rows propose, one bond each, so each writes back its own two
    sites, exchanged or not.
    """
    cdf = np.cumsum(p0.weights)
    if not math.isclose(cdf[-1], 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("initial distribution must be normalised")
    top = float(max(p.r, p.ell))
    # acceptance of the bond states (s1, s2) at [3 s1 + s2]
    accept = rate_by_sign(p, Ring.FLOAT)[1][BOND_SIGN].ravel() / top
    n_sites = 2 * p.L
    lam_t = _sampler_rate(p) * t
    for b, first in enumerate(range(0, trajectories, BLOCK)):
        n = min(BLOCK, trajectories - first)
        rng = np.random.Generator(np.random.SFC64(np.random.SeedSequence([seed, b])))
        occ = p0.rows[np.searchsorted(cdf[:-1], rng.random(n), side="right")]
        proposals = np.sort(rng.poisson(lam_t, n))
        alive = n - np.searchsorted(proposals, np.arange(proposals[-1]), side="right")
        flat = occ.reshape(-1)
        row_start = np.arange(0, n * n_sites, n_sites)
        for m in alive.tolist():
            bond, draw = _bond_draws(rng.random(m), n_sites - 1)
            left = row_start[n - m :] + bond
            right = left + 1
            s1, s2 = flat[left], flat[right]
            swap = draw < accept.take(3 * s1 + s2)
            # the exchange as +-d, d = s2 - s1 where swapped and 0 elsewhere
            d = (s2 - s1) * swap
            flat[left] = s1 + d
            flat[right] = s2 - d
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
    Rows are counted by their `lattice.encode` codes, merged block by
    block, so the count arrays hold one entry per distinct final row.
    """
    codes, counts = np.empty(0, np.int64), np.empty(0)
    for occ in _final_blocks(p0, t, trajectories, seed, p):
        new, hits = np.unique(encode(occ), return_counts=True)
        codes, where = np.unique(np.concatenate([codes, new]), return_inverse=True)
        counts = np.bincount(where, np.concatenate([counts, hits]))
    means, variances = q_moments(config_rows(zs), decode(codes, p.L), counts, p.q0)
    n = trajectories
    return [
        QEstimate(m, math.sqrt(var / max(1, n - 1)), n)
        for m, var in zip(means.tolist(), variances.tolist())
    ]


def q_moments(z_rows, rows, weights, q0: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of each duality product Q_z, z in `z_rows`, over
    occupation `rows` with float weights normalised by their sum (a law,
    or the counts of a sample).  The sums over rows are numpy's pairwise
    sums, so they do not depend on a BLAS kernel."""
    values = q_values(z_rows, rows, q0)
    weights = np.asarray(weights, dtype=np.float64)
    total = weights.sum()
    mean = (values * weights).sum(axis=1) / total
    var = ((values - mean[:, None]) ** 2 * weights).sum(axis=1) / total
    return mean, np.maximum(var, 0.0)


@lru_cache(maxsize=32)
def sector_generator(p: ModelParams, sector: Sector) -> SparseMatrix:
    """The float generator of a sector, built once for all the times of a
    simulation."""
    return build_H_sector(p, sector, Ring.FLOAT)


def _by_sector(rows: np.ndarray, p: ModelParams):
    """(sector, its table, positions in the table, which rows) for each
    sector that holds rows, in sorted order."""
    counts = np.stack([(rows == A).sum(axis=1), (rows == B).sum(axis=1)], axis=1)
    for n, m in sorted(set(map(tuple, counts.tolist()))):
        sector = Sector(p.L, n, m)
        table = sector_occupations(sector)
        held = (counts == (n, m)).all(axis=1)
        yield sector, table, np.searchsorted(encode(table), encode(rows[held])), held


def law_at(p0: Measure, t: float, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact law of eta_t as sector-table rows and their probabilities:
    each sector's part of p0 evolved by `evolve_vector`."""
    rows, probs = [], []
    for sector, table, at, held in _by_sector(p0.rows, p):
        v = np.zeros(len(table))
        v[at] = p0.weights[held]
        rows.append(table)
        probs.append(_evolved(sector_generator(p, sector), v, t))
    return np.concatenate(rows), np.concatenate(probs)


def duality_rhs(zs: list[Config], p0: Measure, t: float, p: ModelParams) -> list[float]:
    """Duality predictions for the time-dependent means of the products.

    The initial-time means of Q_zc, for every zc in the sectors of zs,
    evolved as a law of those sectors: the expectation propagates through
    the dynamics of N(z) + M(z) particles only, one series per sector.
    """
    z_rows = config_rows(zs)
    out = np.empty(len(zs))
    for sector, table, at, held in _by_sector(z_rows, p):
        means = q_moments(table, p0.rows, p0.weights, p.q0)[0]
        out[held] = _evolved(sector_generator(p, sector), means, t)[at]
    return out.tolist()
