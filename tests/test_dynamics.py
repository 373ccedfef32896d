import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from asep2 import dynamics, fold
from asep2.duality import q_values, sum_rule_table
from asep2.dynamics import (
    BLOCK,
    DENSE_MAX_DIM,
    MAX_SQUARINGS,
    PRODUCT_CALL_TERMS,
    SCALE_MU,
    TAIL_TOL,
    QEstimate,
    _dense_work,
    _detailed_balance,
    _evolved,
    _final_blocks,
    _poisson_weights,
    _power_series,
    _product_cost,
    _squaring_plan,
    _vector_work,
    duality_rhs,
    estimate_Q_many,
    evolve,
    evolve_vector,
    law_at,
    plan,
    q_moments,
    sampler_work,
    sector_generator,
)
from asep2.fold import PANEL_MIN_DIM
from asep2.generator import ModelParams, Ring, build_H, build_H_sector
from asep2.lattice import (
    VACANT,
    Config,
    Sector,
    config_rows,
    encode,
    enumerate_sector,
    sector_occupations,
    sectors,
    vacant_config,
)
from asep2.measures import Measure, canonical, grandcanonical
from asep2.sparse import SparseMatrix

from helpers import clear_caches, dense, float_matrix, reference_q

P1 = ModelParams(1, Fraction(2), Fraction(1, 2))
P2 = ModelParams(2, Fraction(2), Fraction(1, 2))
SECTOR11 = Sector(2, 1, 1)


def sector_kernel(t):
    return evolve(build_H_sector(P2, SECTOR11, Ring.FLOAT), t)


def canonical_vector(p, sector):
    return canonical(sector).normalize(p.q0).weights


def assert_sound_kernel(k, pi, t):
    """Column sums, signs, stationarity and, at t >= 1000, mixing of a kernel."""
    assert np.abs(k.sum(axis=0) - 1).max() <= 1e-12
    assert k.min() >= -1e-12
    assert float(np.max(np.abs(k @ pi - pi))) <= 1e-10
    if t >= 1000.0:
        assert float(np.max(np.abs(k - pi[:, None]))) <= 1e-8


def fixed_rule_weights(lam_t):
    """The series weights of the rule that always squares s0 times, the
    least s with lam t/2^s <= SCALE_MU, with its stopping rule written out
    as a reference: returns (s0, weights)."""
    s = max(0, math.ceil(math.log2(lam_t / SCALE_MU)))
    mu, tol = math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -s)
    weights = [math.exp(-mu)]
    cum = weights[0]
    k = 0
    while 1.0 - cum >= tol and not (
        k + 2 > mu and weights[k] * mu / (k + 1) / (1.0 - mu / (k + 2)) < tol
    ):
        k += 1
        weights.append(weights[k - 1] * mu / k)
        cum += weights[k]
    return s, weights


def fold_of(s: np.ndarray, orbits):
    """The fold of a dense matrix s: its rows of the fixed and low states,
    its columns in the order fixed, low, high."""
    fixed, low, _high = orbits
    return np.ascontiguousarray(s[np.ix_(np.concatenate([fixed, low]), np.concatenate(orbits))])


# a log grid of rate-time products with those of the benchmark's kernels
PLAN_GRID = sorted({*np.logspace(-3, 5, 41).tolist(), 2.75, 11.0, 44.0, 285.0, 850.0, 8500.0})


class TestEvolve:
    def test_zero_time_is_identity(self):
        k = sector_kernel(0.0)
        assert np.array_equal(k.matrix, np.eye(12))

    def test_columns_stochastic(self):
        k = evolve(build_H(P2, Ring.FLOAT), 1.0)
        assert np.abs(k.matrix.sum(axis=0) - 1).max() < 1e-12
        assert k.matrix.min() >= 0.0
        assert k.matrix.max() <= 1.0 + 1e-12

    def test_semigroup(self):
        prod = sector_kernel(1.0).matrix @ sector_kernel(1.5).matrix
        assert float(np.max(np.abs(prod - sector_kernel(2.5).matrix))) < 1e-10

    def test_ergodic_limit(self):
        k = evolve(build_H_sector(P2, SECTOR11, Ring.FLOAT), 1e3)
        probs = canonical_vector(P2, SECTOR11)
        assert float(np.max(np.abs(k.matrix - probs[:, None]))) < 1e-8

    @pytest.mark.parametrize(
        "L, N, M, t",
        [
            (3, 2, 2, 30.0),
            (3, 1, 1, 30.0),
            (3, 1, 1, 100.0),
            (4, 3, 3, 30.0),
            (4, 3, 3, 1000.0),
            (4, 2, 2, 1000.0),
        ],
    )
    def test_long_horizons(self, L, N, M, t):
        # horizons that are scaled by 2^s and squared s times: the column
        # sums hold only if each squaring's rounding and the tail cut at
        # the scaled horizon stay within the bound
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        sector = Sector(L, N, M)
        k = evolve(build_H_sector(p, sector, Ring.FLOAT), t)
        assert_sound_kernel(k.matrix, canonical_vector(p, sector), t)

    def test_cross_plan_semigroup(self):
        # the benchmark's 560-state sector at horizons whose plans square
        # 6 and 8 times: the semigroup law holds across plans, and each
        # kernel keeps the invariants at the benchmark's horizons
        p = ModelParams(4, Fraction(2), Fraction(1, 2))
        sector = Sector(4, 3, 3)
        op = build_H_sector(p, sector, Ring.FLOAT)
        lam = float(np.max(np.diag(dense(op))))
        assert [_squaring_plan(lam * t)[0] for t in (1.0, 3.0, 4.0)] == [6, 6, 8]
        k = {t: evolve(op, t).matrix for t in (0.25, 1.0, 3.0, 4.0)}
        assert float(np.max(np.abs(k[1.0] @ k[3.0] - k[4.0]))) <= 1e-12
        pi = canonical_vector(p, sector)
        for t in (0.25, 1.0, 4.0):
            assert_sound_kernel(k[t], pi, t)

    @pytest.mark.parametrize("lam_t", PLAN_GRID)
    def test_squaring_plan(self, lam_t):
        # never a dearer product cost than squaring s0 times, never past
        # MAX_SQUARINGS unless s0 is, and the weights at s0 are unchanged
        s0, reference = fixed_rule_weights(lam_t)
        mu0, tol0 = math.ldexp(lam_t, -s0), math.ldexp(TAIL_TOL, -s0)
        assert _poisson_weights(mu0, tol0) == reference
        s, weights = _squaring_plan(lam_t)
        assert _product_cost(s, weights) <= _product_cost(s0, reference)
        assert s0 <= s <= max(s0, MAX_SQUARINGS)
        assert math.ldexp(lam_t, -s) <= SCALE_MU
        assert weights == _poisson_weights(math.ldexp(lam_t, -s), math.ldexp(TAIL_TOL, -s))

    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 7])
    def test_power_series_short(self, terms):
        # dyadic entries and weights keep every sum exact, so the series
        # equals sum_k w_k P^k bit for bit however few powers it forms;
        # P is symmetric, as `evolve` passes it, since P^2 is formed as P P^T;
        # with no mirror pairs the fold of P is P itself
        rng = np.random.default_rng(terms)
        half = rng.integers(0, 4, size=(5, 5)) / 8.0
        p = half + half.T
        weights = [2.0 ** -(k + 1) for k in range(terms)]
        expected = sum(w * np.linalg.matrix_power(p, k) for k, w in enumerate(weights))
        assert np.array_equal(_power_series(p, weights), expected)

    @pytest.mark.parametrize("mirror", [[0, 3, 4, 1, 2], [2, 4, 0, 3, 1]])
    @pytest.mark.parametrize("terms", [1, 2, 3, 4, 7])
    def test_power_series_folded(self, terms, mirror):
        # the same exact sums on a P that commutes with an involution,
        # folded over its orbits and unfolded after the series
        rng = np.random.default_rng(terms)
        half = rng.integers(0, 4, size=(5, 5)) / 8.0
        j = np.array(mirror)
        p = half + half.T
        p = p + p[np.ix_(j, j)]
        weights = [2.0 ** -(k + 1) for k in range(terms)]
        expected = sum(w * np.linalg.matrix_power(p, k) for k, w in enumerate(weights))
        orbits = fold.orbits(len(j), j)
        series = fold.unfold(_power_series(fold_of(p, orbits), weights), orbits, np.ones(5))
        assert np.array_equal(series, expected)

    @pytest.mark.parametrize(
        "L, N, M", [(2, 1, 1), (3, 1, 1), (3, 2, 2), (3, 1, 2)]
    )
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0, 30.0])
    def test_spectral_reference(self, L, N, M, t):
        # detailed balance makes S = Pi^(-1/2) H Pi^(1/2) symmetric, so
        # eigh gives exp(-H t) = Pi^(1/2) V exp(-D t) V^T Pi^(-1/2)
        # independently of the uniformization series
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        sector = Sector(L, N, M)
        op = build_H_sector(p, sector, Ring.FLOAT)
        root = np.sqrt(canonical_vector(p, sector))
        h = dense(op)
        d, v = np.linalg.eigh(h * root[None, :] / root[:, None])
        reference = (root[:, None] * v) @ (np.exp(-d * t)[:, None] * v.T / root[None, :])
        k = evolve(op, t).matrix
        assert float(np.max(np.abs(k - reference))) <= 1e-11
        assert_sound_kernel(k, root**2, t)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            evolve(build_H_sector(P2, SECTOR11, Ring.FLOAT), -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, 1e308])
    def test_non_finite_time(self, t):
        # 1e308 is finite, but its rate-time product overflows
        with pytest.raises(ValueError, match="finite rate-time product"):
            evolve(build_H_sector(P2, SECTOR11, Ring.FLOAT), t)

    def test_absorbing_sector(self):
        k = evolve(build_H_sector(P2, Sector(2, 0, 0), Ring.FLOAT), 3.0)
        assert np.array_equal(k.matrix, np.eye(1))

    @pytest.mark.parametrize("t", [5e-324, 1e-322])
    def test_subnormal_horizon(self, t):
        # lam t = 4.5 t > 0 is subnormal (at 5e-324, lam t/SCALE_MU underflows
        # to 0): s0 = 0 takes no log, and one Poisson weight of 1 leaves the
        # identity on every path
        op = build_H_sector(P2, SECTOR11, Ring.FLOAT)
        v = np.linspace(0.0, 1.0, op.dim)
        assert plan(op, t) == (False, 0.0)
        assert np.array_equal(evolve(op, t).matrix, np.eye(op.dim))
        assert np.array_equal(evolve_vector(op, v, t), v)


def commuting_pair(n: int, seed: int):
    """s^2 and s^3 for a random symmetric s with entries in [0, 2/n]: two
    polynomials in one symmetric matrix, as `_power_series` multiplies."""
    rng = np.random.default_rng(seed)
    half = rng.random((n, n)) / n
    s = half + half.T
    a = s @ s.T
    return a, a @ s


class TestSymmetricProduct:
    @pytest.mark.parametrize("n", [PANEL_MIN_DIM - 1, PANEL_MIN_DIM, PANEL_MIN_DIM + 1, 283])
    def test_matches_gemm(self, n):
        # one gemm below PANEL_MIN_DIM (odd, the last dim that falls back);
        # from it on, PANELS row panels, ragged when PANELS does not divide n
        a, b = commuting_pair(n, n)
        buf = np.empty_like(a)
        out = fold.symmetric_product(a, b, buf)
        assert out is buf
        ref = a @ b
        assert float(np.max(np.abs(out - ref))) <= 1e-15 * np.linalg.norm(a) * np.linalg.norm(b)
        if n < PANEL_MIN_DIM:
            assert np.array_equal(out, ref)
        else:
            assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 13])
    def test_small_ragged_panels(self, n, monkeypatch):
        # panels of one, two or no rows (n < PANELS), each mirrored into place
        monkeypatch.setattr(fold, "PANEL_MIN_DIM", 1)
        a, b = commuting_pair(n, n)
        out = fold.symmetric_product(a, b, np.full_like(a, np.nan))
        assert float(np.max(np.abs(out - a @ b))) <= 1e-15 * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.array_equal(out, out.T)


class TestFoldProducts:
    @pytest.mark.parametrize("n", [2, 41, 2 * PANEL_MIN_DIM, 2 * PANEL_MIN_DIM + 1])
    def test_match_dense(self, n):
        # folded over the reversal of range(n), whose pairs (i, n-1-i) leave
        # the middle state fixed for odd n: from 2 PANEL_MIN_DIM on, both
        # half products of `fold.product` take the row panels
        j = np.arange(n)[::-1]
        rng = np.random.default_rng(n)
        half = rng.random((n, n)) / n
        s = half + half.T
        s = (s + s[np.ix_(j, j)]) / 2
        a, b = s @ s, s @ s @ s
        orbits = fold.orbits(len(j), j)
        fa, fb = fold_of(a, orbits), fold_of(b, orbits)
        assert fa.shape == (n - n // 2, n)
        ones = np.ones(n)
        square = fold.unfold(fold.square(fa, np.empty_like(fa)), orbits, ones)
        product = fold.unfold(fold.product(fa, fb, np.empty_like(fa)), orbits, ones)
        bound = 1e-15 * np.linalg.norm(a) * np.linalg.norm(b)
        assert float(np.max(np.abs(square - a @ a))) <= 1e-15 * np.linalg.norm(a) ** 2
        assert float(np.max(np.abs(product - a @ b))) <= bound
        assert np.array_equal(square, square.T)


# every sector at L <= 3, and L = 4 (2,2) and (3,3), the benchmark's dim 420 and 560
BALANCE_SECTORS = [
    (L, n, m) for L in (1, 2, 3) for n in range(2 * L + 1) for m in range(2 * L - n + 1)
] + [(4, 2, 2), (4, 3, 3)]


def three_cycle(forward: float, back: float) -> SparseMatrix:
    """A generator on 0 -> 1 -> 2 -> 0, each move at rate `forward` and
    its reverse at rate `back`."""
    entries = {(a, a): forward + back for a in range(3)}
    for a in range(3):
        entries[(a + 1) % 3, a] = -forward
        entries[a, (a + 1) % 3] = -back
    return float_matrix(3, entries)


class TestDetailedBalance:
    @pytest.mark.parametrize("q", [Fraction(2), Fraction(6, 5)])
    @pytest.mark.parametrize("L, N, M", BALANCE_SECTORS)
    def test_rate_weights_are_canonical(self, L, N, M, q):
        # sqrt(pi) spread from the rates alone, squared and normalised,
        # is the canonical measure of the sector; each step multiplies by
        # q, exact at q = 2 and rounded at q = 6/5
        p = ModelParams.from_qw(L, q)
        sector = Sector(L, N, M)
        root = _detailed_balance(build_H_sector(p, sector, Ring.FLOAT))[3]
        pi = canonical_vector(p, sector)
        assert float(np.max(np.abs(root**2 / (root**2).sum() / pi - 1.0))) <= 1e-13

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_full_generator(self, q):
        # the full basis holds one communicating class per sector, each
        # spread from its own first row: the kernel is sound, zero between
        # sectors, and each sector's block is that sector's kernel
        p = ModelParams.from_qw(2, Fraction(q))
        op = build_H(p, Ring.FLOAT)
        pi = grandcanonical(0.0, 0.0, p).weights
        for t in (1.0, 30.0):
            k = evolve(op, t).matrix
            assert_sound_kernel(k, pi, t)
            outside = np.ones_like(k, dtype=bool)
            for n in range(2 * p.L + 1):
                for m in range(2 * p.L - n + 1):
                    sector = Sector(p.L, n, m)
                    at = encode(sector_occupations(sector))
                    block = k[np.ix_(at, at)]
                    own = evolve(build_H_sector(p, sector, Ring.FLOAT), t).matrix
                    assert float(np.max(np.abs(block - own))) <= 1e-12
                    outside[np.ix_(at, at)] = False
            assert not k[outside].any()

    def test_one_way_term(self):
        # 0 -> 1 at rate 1 and no way back
        op = float_matrix(2, {(0, 0): 1.0, (1, 0): -1.0})
        with pytest.raises(ValueError, match="no reverse"):
            evolve(op, 1.0)

    def test_cycle_breaks_kolmogorov(self):
        # every move has a reverse, but around the cycle the rates
        # multiply to 8 one way and to 1 the other
        with pytest.raises(ValueError, match="Kolmogorov"):
            evolve(three_cycle(2.0, 1.0), 1.0)

    def test_reversible_cycle(self):
        # equal rates both ways round a cycle: uniform pi, and the kernel
        # of the symmetric generator is itself symmetric
        root = _detailed_balance(three_cycle(2.0, 2.0))[3]
        assert root.tolist() == [1.0, 1.0, 1.0]
        k = evolve(three_cycle(2.0, 2.0), 1.0).matrix
        assert_sound_kernel(k, np.full(3, 1 / 3), 1.0)
        assert np.array_equal(k, k.T)


def sector_op(L, N, M):
    return build_H_sector(ModelParams(L, Fraction(2), Fraction(1, 2)), Sector(L, N, M), Ring.FLOAT)


def cold_kernel(op, t):
    """evolve(op, t) from an empty store: its series summed again."""
    clear_caches()
    return evolve(op, t).matrix


@pytest.fixture
def series_calls(monkeypatch):
    """One entry per `_power_series` call from here on, the store emptied."""
    calls = []
    power_series = dynamics._power_series
    monkeypatch.setattr(dynamics, "_power_series", lambda *a: calls.append(1) or power_series(*a))
    clear_caches()
    return calls


class TestResume:
    def test_shared_series(self):
        # the benchmark's 560-state sector at lam = 11: t = 1 and t = 4
        # square one series, mu = 11/64 with 11 weights, 6 and 8 times;
        # t = 0.25 plans other weights
        op = sector_op(4, 3, 3)
        lam = float(np.max(np.diag(dense(op))))
        assert lam == 11.0
        (s1, w1), (s4, w4) = _squaring_plan(lam), _squaring_plan(4 * lam)
        assert (s1, s4) == (6, 8)
        assert math.ldexp(lam, -s1) == math.ldexp(4 * lam, -s4) == 11 / 64
        assert w1 == w4 and len(w1) == 11
        assert _squaring_plan(lam / 4)[1] != w1

    def test_resumed_equals_cold(self):
        op = sector_op(4, 3, 3)
        reference = cold_kernel(op, 4.0)
        clear_caches()
        evolve(op, 1.0)
        assert np.array_equal(evolve(op, 4.0).matrix, reference)

    @pytest.mark.parametrize("t", [0.25, 1.0, 30.0])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_doubling_ladder(self, L, t):
        # t, 2t, 4t, 8t on one operator, resumed where the plans share a
        # series, bit for bit the kernels of calls from an empty store
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        for sector in sectors(L):
            op = build_H_sector(p, sector, Ring.FLOAT)
            times = [t * 2**k for k in range(4)]
            clear_caches()
            ladder = [evolve(op, u).matrix for u in times]
            for u, kernel in zip(times, ladder):
                assert np.array_equal(kernel, cold_kernel(op, u))

    @pytest.mark.parametrize(
        "times, rebuilt, summed",
        [
            ((1.0, 4.0), False, 1),  # one series, squared 6 times and then 2 more
            ((0.25, 1.0), False, 2),  # the weights differ
            ((1.0, 4.0), True, 2),  # an equal operator, not the same object
            ((1.0, 1.0), False, 1),  # an exact repeat squares zero times
        ],
    )
    def test_series_count(self, series_calls, times, rebuilt, summed):
        op = sector_op(4, 3, 3)
        first = evolve(op, times[0]).matrix
        second = evolve(sector_op(4, 3, 3) if rebuilt else op, times[1]).matrix
        assert len(series_calls) == summed
        if times[0] == times[1]:
            assert np.array_equal(first, second) and first is not second

    def test_zero_time_leaves_the_store(self, series_calls):
        # lam t = 0 returns the identity before the store is read: a call
        # at t = 0 releases neither its operator's fold nor, though the
        # unfolded square of (3,2) would need the whole budget, another's
        op, mid, unfolded = sector_op(4, 3, 3), sector_op(4, 2, 2), sector_op(4, 3, 2)
        evolve(mid, 1.0)
        evolve(op, 1.0)
        stored = list(dynamics._StoredSquares.entries)
        for zero in (unfolded, op):
            assert np.array_equal(evolve(zero, 0.0).matrix, np.eye(zero.dim))
        assert list(dynamics._StoredSquares.entries) == stored
        evolve(op, 4.0)  # resumed: squared twice more
        evolve(mid, 1.0)  # an exact repeat
        assert len(series_calls) == 2

    def test_mirror_checked_once(self, monkeypatch):
        # the orbits are stored with the fold: later calls on the same
        # operator, resumed or not, do not check its mirror again, and an
        # equal operator that is not the same object is checked afresh
        checks = []
        orbits = dynamics._orbits
        monkeypatch.setattr(dynamics, "_orbits", lambda op: checks.append(op) or orbits(op))
        clear_caches()
        op = sector_op(4, 3, 3)
        for t in (1.0, 4.0, 0.25):
            evolve(op, t)
        assert len(checks) == 1
        evolve(sector_op(4, 3, 3), 1.0)
        assert len(checks) == 2

    def test_clear_caches_empties_the_store(self, series_calls):
        op = sector_op(4, 3, 3)
        evolve(op, 1.0)
        clear_caches()
        evolve(op, 4.0)
        assert len(series_calls) == 2

    def test_returned_kernels_are_the_callers(self):
        # writing into a returned kernel leaves the stored square alone
        op = sector_op(4, 3, 3)
        reference = {t: cold_kernel(op, t) for t in (1.0, 4.0)}
        clear_caches()
        evolve(op, 1.0).matrix[:] = np.nan
        resumed = evolve(op, 4.0).matrix
        assert np.array_equal(resumed, reference[4.0])
        resumed[:] = np.nan
        assert np.array_equal(evolve(op, 4.0).matrix, reference[4.0])

    def test_errors_leave_the_store_sound(self):
        op = sector_op(4, 3, 3)
        reference = cold_kernel(op, 4.0)
        clear_caches()
        evolve(op, 1.0)
        with pytest.raises(ValueError):
            evolve(op, -1.0)
        assert np.array_equal(evolve(op, 4.0).matrix, reference)
        with pytest.raises(ValueError, match="no reverse"):
            evolve(float_matrix(2, {(0, 0): 1.0, (1, 0): -1.0}), 1.0)
        assert np.array_equal(evolve(op, 4.0).matrix, reference)

    def test_alternating_sectors_resume(self, series_calls):
        # simulate's order: law_at's sector, then duality_rhs's three, at
        # each time; at L = 3, t = 30, 60, 120 the sectors of dim 6, 6 and
        # 30 resume at 60 and 120, bit for bit as from an empty store
        from asep2.cli import default_dual_coordinates, default_initial_config

        p = ModelParams(3, Fraction(2), Fraction(1, 2))
        eta0, zs = default_initial_config(3), default_dual_coordinates(3)
        p0 = Measure.point_mass(eta0)
        times = (30.0, 60.0, 120.0)
        ops = [sector_generator(p, Sector(3, c.N, c.M)) for c in [eta0, *zs]]
        assert all(plan(op, t).dense for op in ops for t in times)
        resumed = [(law_at(p0, t, p), duality_rhs(zs, p0, t, p)) for t in times]
        assert len(series_calls) == 6
        for t, (law, rhs) in zip(times, resumed):
            clear_caches()
            cold_law = law_at(p0, t, p)
            clear_caches()
            assert rhs == duality_rhs(zs, p0, t, p)
            assert all(np.array_equal(x, y) for x, y in zip(law, cold_law))
        assert len(series_calls) == 6 + 12

    def test_store_budget(self, series_calls):
        # the folds never pass DENSE_MAX_DIM^2 entries, counted as
        # (f + m)(f + 2m) for f fixed states and m mirror pairs: the folded
        # N = M sectors of dim 560 and 420 and the unfolded ones of dim 90
        # and 30 fit together, and the unfolded dim 560 of (3,2), the whole
        # budget, releases them all; a miss releases the earliest until its
        # own fits
        big, mid = sector_op(4, 3, 3), sector_op(4, 2, 2)
        small = [sector_op(3, 2, 2), sector_op(3, 1, 1)]
        unfolded = sector_op(4, 3, 2)
        ops = (big, mid, *small, unfolded)
        sizes = [(op.dim - len(dynamics._orbits(op)[1])) * op.dim for op in ops]
        assert [op.dim for op in ops] == [560, 420, 90, 30, 560]
        assert sizes == [165_760, 93_240, 8_100, 900, DENSE_MAX_DIM**2]
        for op in (*small, big, mid):
            evolve(op, 1.0)
        stored = dynamics._StoredSquares.entries.values()
        held = lambda: [e[2].size for e in stored]  # noqa: E731
        assert held() == [8_100, 900, 165_760, 93_240]
        evolve(unfolded, 1.0)  # releases every fold
        assert held() == [DENSE_MAX_DIM**2]
        for op in small:
            evolve(op, 1.0)  # the first releases the unfolded square
        assert held() == [8_100, 900]
        series_calls.clear()
        for op in (*small, big, mid, *small):
            evolve(op, 1.0)
        assert len(series_calls) == 2  # big and mid were released
        assert sum(held()) <= DENSE_MAX_DIM**2

    def test_peak_memory(self):
        # traced peaks above an empty store, against n x n float64 arrays
        # (`square`) and the fold of L4 (3,3) (`folded`, f = 32 fixed states
        # and m = 264 pairs: 0.53 of a square).  A cold call holds five
        # folds and the products' half-size temporaries, below the five
        # squares of an unfolded call.  A miss releases the stored folds
        # until its own fits before its series, so it peaks where a cold
        # call does, and a miss on a smaller operator stays below a cold
        # call on the larger.  A hit holds the stored fold with one buffer
        # fold, then with the kernel; on the same terms with no mirror, the
        # stored square with one buffer, which takes the kernel
        op, mid = sector_op(4, 3, 3), sector_op(4, 2, 2)
        plain = without_mirror(op)
        square = 8 * op.dim**2
        folded = 8 * (op.dim - len(dynamics._orbits(op)[1])) * op.dim
        assert 0.52 * square < folded < 0.53 * square

        def peak(t, stored=None, on=op, first=op):
            clear_caches()
            base = tracemalloc.get_traced_memory()[0]
            if stored is not None:
                evolve(first, stored)
            tracemalloc.reset_peak()
            evolve(on, t)
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            cold, miss = peak(0.25), peak(0.25, stored=1.0)
            cold4, hit = peak(4.0), peak(4.0, stored=1.0)
            other = peak(30.0, stored=1.0, on=mid)
            plain_hit = peak(4.0, stored=1.0, on=plain, first=plain)
        finally:
            tracemalloc.stop()
        assert cold < 5 * folded + square < 5 * square
        assert cold4 < 5 * folded + square
        assert miss < cold + folded / 2
        assert hit < folded + square + folded / 2
        assert other < cold
        assert plain_hit < 2 * square + square / 2


def without_mirror(op: SparseMatrix, mirror=None) -> SparseMatrix:
    """op's terms with another attached mirror, None by default."""
    return SparseMatrix.from_arrays(op.dim, op.row, op.col, op.h, op.coeff, mirror=mirror)


class TestMirrorFold:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_folded_matches_unfolded(self, L):
        # every N = M sector at r=2, l=1/2 commutes with its mirror exactly
        # and is folded from PANEL_MIN_DIM states on (L4 (2,2) and (3,3));
        # its kernels keep every entry >= 0 with no tolerance and agree with
        # the unfolded ones to 1e-12 relative, and those of the smaller
        # sectors, not folded, bit for bit
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        for sector in sectors(L):
            if sector.N != sector.M:
                continue
            op = build_H_sector(p, sector, Ring.FLOAT)
            fixed, low, high = dynamics._orbits(op)
            assert np.array_equal(np.sort(np.concatenate([fixed, low, high])), np.arange(op.dim))
            if op.dim < PANEL_MIN_DIM:
                assert len(low) == 0
            else:
                assert len(low) and np.array_equal(op.mirror[low], high)
                assert np.all(op.mirror[fixed] == fixed)
            for t in (0.25, 4.0, 1000.0):
                folded = cold_kernel(op, t)
                plain = cold_kernel(without_mirror(op), t)
                assert folded.min() >= 0.0
                assert np.abs(folded.sum(axis=0) - 1).max() <= 1e-12
                assert np.all(np.abs(folded - plain) <= 1e-12 * plain)
                if not len(low):
                    assert np.array_equal(folded, plain)

    @pytest.mark.parametrize("L, fixed, pairs", [(2, 81, 0), (3, 27, 351)])
    def test_full_basis_orbits(self, L, fixed, pairs):
        # the full basis at L = 3 folds over 3^3 fixed states, those whose
        # site k holds the mirror image of site 5 - k; at L = 2 its 81
        # states are below PANEL_MIN_DIM and are not folded
        op = build_H(ModelParams(L, Fraction(2), Fraction(1, 2)), Ring.FLOAT)
        orbits = dynamics._orbits(op)
        assert (len(orbits[0]), len(orbits[1])) == (fixed, pairs)

    @pytest.mark.parametrize("fault", ["skewed term", "shifted permutation", "no mirror"])
    def test_noncommuting_mirror_is_not_used(self, fault):
        # a mirror that is not an involution, or that H's terms miss by one
        # ulp of one off-diagonal rate, is not folded over: the kernel is
        # bit for bit that of the same terms with no mirror.  Unskewed, with
        # its own mirror, the sector folds
        op = sector_op(4, 2, 2)
        assert len(dynamics._orbits(op)[1]) == 198
        coeff = op.coeff.copy()
        if fault == "skewed term":
            i = int(np.flatnonzero(op.row != op.col)[0])
            coeff[i] = np.nextafter(coeff[i], 0.0)
        skewed = SparseMatrix.from_arrays(op.dim, op.row, op.col, op.h, coeff)
        j = {"skewed term": op.mirror, "shifted permutation": np.roll(op.mirror, 1)}.get(fault)
        faulty = without_mirror(skewed, j)
        assert len(dynamics._orbits(faulty)[1]) == 0
        for t in (1.0, 30.0):
            assert np.array_equal(cold_kernel(faulty, t), cold_kernel(skewed, t))

    def test_symmetry_that_is_no_involution_is_not_used(self):
        # the rotation of a uniform cycle of PANEL_MIN_DIM states commutes
        # with it exactly, but it is no involution, so it has no pairs to
        # fold over; the reflection of the cycle has them
        n = PANEL_MIN_DIM
        entries = {(a, a): 2.0 for a in range(n)}
        for a in range(n):
            entries[(a + 1) % n, a] = entries[a, (a + 1) % n] = -1.0
        op = float_matrix(n, entries)
        rotated = without_mirror(op, np.roll(np.arange(n), 1))
        j = rotated.mirror
        assert SparseMatrix.from_arrays(n, j[op.row], j[op.col], op.h, op.coeff) == op
        assert len(dynamics._orbits(rotated)[1]) == 0
        assert len(dynamics._orbits(without_mirror(op, -np.arange(n) % n))[1]) == n // 2 - 1
        assert np.array_equal(cold_kernel(rotated, 1.0), cold_kernel(op, 1.0))

    @pytest.mark.parametrize("L, N", [(3, 2), (4, 2), (4, 3)])
    def test_rounded_exit_sums_are_not_folded(self, L, N):
        # at r=7/10, l=3/10 the float diagonal's bond-by-bond exit sums
        # round by their order, so the generator misses its relabelling in
        # the last bit and is evolved unfolded, bit for bit
        p = ModelParams(L, Fraction(7, 10), Fraction(3, 10))
        op = build_H_sector(p, Sector(L, N, N), Ring.FLOAT)
        j = op.mirror
        relabelled = SparseMatrix.from_arrays(op.dim, j[op.row], j[op.col], op.h, op.coeff)
        assert j is not None and relabelled != op
        diff = dense(relabelled) - dense(op)
        assert np.any(np.diag(diff)) and not np.any(diff - np.diag(np.diag(diff)))
        assert len(dynamics._orbits(op)[1]) == 0
        for t in (1.0, 30.0):
            assert np.array_equal(cold_kernel(op, t), cold_kernel(without_mirror(op), t))


def blas_fingerprint() -> str:
    """The first 16 hex digits of the SHA-256 of a syrk and a gemm product
    at dim 560: two BLAS builds or thread counts that round these alike
    are taken to round the kernels alike."""
    x = np.random.default_rng(0).random((560, 560))
    return hashlib.sha256((x @ x.T).tobytes() + (x @ x[::-1]).tobytes()).hexdigest()[:16]


PIN_TIMES = (0.25, 1.0, 30.0, 1000.0)
# SHA-256 of the bytes of `evolve`'s cold kernels, each case's sectors in
# turn at PIN_TIMES: sectors with N != M at r=2, l=1/2, and N = M sectors
# at r=7/10, l=3/10, whose float exit sums are not mirror-symmetric.  The
# products round by the BLAS build and its thread count, so the digests
# are keyed by `blas_fingerprint`: numpy 2.4's OpenBLAS 0.3.31 (Haswell
# kernels) on one and on two threads
PIN_CASES = {
    "unequal": ((Fraction(2), Fraction(1, 2)), ((3, 2, 1), (3, 1, 0), (4, 2, 1))),
    "skewed": ((Fraction(7, 10), Fraction(3, 10)), ((3, 2, 2), (4, 2, 2), (4, 3, 3))),
}
KERNEL_PINS = {
    "07578b38096089f6": {
        "unequal": "742a1991c91fb783985d780f43af36d16587fb7ae286623512a6fa1af85fea97",
        "skewed": "195d634f73a58f3dbfcbaf797da9cd925f7f63d37a37e001612792e81031a31b",
    },
    "edc4aff3481de4db": {
        "unequal": "742a1991c91fb783985d780f43af36d16587fb7ae286623512a6fa1af85fea97",
        "skewed": "65904a2567243ef2708e4a9efd9e25604a08315760bd92091e6498ec38dcd182",
    },
}


@pytest.mark.parametrize("case", PIN_CASES)
def test_kernel_pins(case):
    # the kernels of sectors evolved without a mirror fold, bit for bit
    pins = KERNEL_PINS.get(blas_fingerprint())
    if pins is None:
        pytest.skip("kernel digests are recorded for other BLAS builds only")
    (r, ell), cases = PIN_CASES[case]
    digest = hashlib.sha256()
    for L, N, M in cases:
        op = build_H_sector(ModelParams(L, r, ell), Sector(L, N, M), Ring.FLOAT)
        for t in PIN_TIMES:
            digest.update(cold_kernel(op, t).tobytes())
    assert digest.hexdigest() == pins[case]


# every sector at L <= 3, and three at L = 4 up to the benchmark's dim 560
VECTOR_SECTORS = [
    (L, n, m) for L in (1, 2, 3) for n in range(2 * L + 1) for m in range(2 * L - n + 1)
] + [(4, 1, 1), (4, 2, 1), (4, 3, 3)]


class TestEvolveVector:
    @pytest.mark.parametrize("L, N, M", VECTOR_SECTORS)
    def test_matches_kernel(self, L, N, M):
        # the series applied to a random law against the dense kernel: the
        # same weights at s0, so they agree to rounding; mass is kept, and
        # a nonnegative series of a nonnegative vector has no negative entry
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        op = build_H_sector(p, Sector(L, N, M), Ring.FLOAT)
        rng = np.random.default_rng([L, N, M])
        for t in (0.25, 1.0, 4.0, 30.0, 1000.0):
            v = rng.random(op.dim)
            v /= v.sum()
            out = evolve_vector(op, v, t)
            kernel = evolve(op, t).matrix @ v
            assert float(np.max(np.abs(out - kernel))) <= 1e-12
            assert abs(out.sum() - v.sum()) <= 1e-12
            assert out.min() >= 0.0
            # `law_at` and `duality_rhs` take the path `plan` picks
            assert np.array_equal(_evolved(op, v, t), kernel if plan(op, t).dense else out)

    def test_no_moves(self):
        # L=1 (0,0) has no terms at all, so no diagonal to take lam from
        op = build_H_sector(P1, Sector(1, 0, 0), Ring.FLOAT)
        assert len(op.coeff) == 0
        assert evolve_vector(op, [0.3], 5.0).tolist() == [0.3]
        assert plan(op, 5.0) == (False, 0.0)

    def test_zero_time_is_a_copy(self):
        op = build_H_sector(P2, SECTOR11, Ring.FLOAT)
        v = np.linspace(0.0, 1.0, op.dim)
        out = evolve_vector(op, v, 0.0)
        assert np.array_equal(out, v) and out is not v

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, 1e308])
    def test_bad_time(self, t):
        op = build_H_sector(P2, SECTOR11, Ring.FLOAT)
        with pytest.raises(ValueError, match="finite rate-time product"):
            evolve_vector(op, np.ones(op.dim), t)

    def test_unbounded_work(self, capsys):
        # a rate-time product that overflows has no plan; `simulate` exits 2
        # at the proposal cap, which it checks before it plans
        from asep2.cli import main

        with pytest.raises(ValueError, match="finite rate-time product"):
            plan(build_H_sector(P2, SECTOR11, Ring.FLOAT), 1e308)
        assert main(["simulate", "--L", "3", "--trajectories", "100", "--t", "1e308"]) == 2
        assert capsys.readouterr().err == (
            "usage error: simulation is desk-scale: inf start draws and jump proposals "
            "and inf sampler steps at 560 proposals each, need at most 1e+08\n"
        )

    @pytest.mark.parametrize("t", [0.5, 30.0])
    def test_work_counts_products(self, t, monkeypatch):
        # one bincount forms the diagonal of P, each other one is a product;
        # the planned work is the lesser of that work and the dense kernel's
        op = build_H_sector(P2, SECTOR11, Ring.FLOAT)
        calls = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
        evolve_vector(op, np.ones(op.dim), t)
        products = len(calls) - 1
        terms = int(np.sum(op.row != op.col)) + op.dim
        assert products > 0
        lam_t = float(np.max(np.diag(dense(op)))) * t
        s0, weights = fixed_rule_weights(lam_t)
        vector = _vector_work(op, s0, len(weights) - 1)
        assert vector == products * (terms + PRODUCT_CALL_TERMS)
        dense_work = _dense_work(op.dim, _product_cost(*_squaring_plan(lam_t)))
        assert plan(op, t).work == min(vector, dense_work)


def simulate_sectors(L):
    """The sectors of `simulate`'s default start and dual coordinates."""
    from asep2.cli import default_dual_coordinates, default_initial_config

    configs = [default_initial_config(L), *default_dual_coordinates(L)]
    return sorted({(c.N, c.M) for c in configs})


# (L, t) -> the sectors (N, M) of `simulate --L L --t t` whose exp(-H t)
# `plan` forms as a dense kernel: the closure-mc runs, L=2 at t = 1, 4 and
# L=4 at t=4, and `--t 1000` at L = 2 and 4.  At L=2, t=4, (1,1) and
# (2,1) are a measured tie (0.35 ms each way) and take the vector series.
PATH_PINS = {
    (2, 1.0): set(),
    (2, 4.0): set(),
    (4, 4.0): set(),
    (2, 1000.0): {(0, 1), (1, 0), (1, 1), (2, 1)},
    (4, 1000.0): {(0, 1), (1, 0), (1, 1), (2, 1)},
}

# sectors for the path choice: every one at L <= 3, L=4 up to the
# benchmark's dim 560, and L=5 (2,2) past DENSE_MAX_DIM at dim 1260
CHOICE_SECTORS = VECTOR_SECTORS + [(4, 2, 2), (5, 2, 2)]
CHOICE_TIMES = (0.0, 0.25, 1.0, 4.0, 30.0, 1000.0, 1e5)
# sha256 of the repr of the list of (dense path?, work) over
# CHOICE_SECTORS at r=2, l=1/2, each at CHOICE_TIMES in turn: 378
# entries, 139 of them on the dense path
WORK_PIN = "68e73d2283dda5e91cfe3ea7f1103d5ad1abac303f426eae56ed636188fda934"


class TestPathChoice:
    @pytest.mark.parametrize("L, t", PATH_PINS)
    def test_pinned_paths(self, L, t):
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        ops = {nm: sector_generator(p, Sector(L, *nm)) for nm in simulate_sectors(L)}
        assert {nm for nm, op in ops.items() if plan(op, t).dense} == PATH_PINS[L, t]

    def test_pinned_table(self):
        # the path and work of every choice, bit for bit
        table = []
        for L, N, M in CHOICE_SECTORS:
            p = ModelParams(L, Fraction(2), Fraction(1, 2))
            op = build_H_sector(p, Sector(L, N, M), Ring.FLOAT)
            for t in CHOICE_TIMES:
                table.append(tuple(plan(op, t)))
        assert len(table) == 378 and sum(dense for dense, _ in table) == 139
        assert hashlib.sha256(repr(table).encode()).hexdigest() == WORK_PIN

    @pytest.mark.parametrize("L, N, M", CHOICE_SECTORS)
    def test_lesser_work(self, L, N, M):
        # the path of the lesser work, the vector series on a tie, with
        # that path's work
        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        op = build_H_sector(p, Sector(L, N, M), Ring.FLOAT)
        lam = float(np.max(np.diag(dense(op)), initial=0.0))
        for t in CHOICE_TIMES:
            if lam * t == 0.0:
                assert plan(op, t) == (False, 0.0)
                continue
            s0, weights = fixed_rule_weights(lam * t)
            vector = _vector_work(op, s0, len(weights) - 1)
            dense_work = math.inf
            if op.dim <= DENSE_MAX_DIM:
                dense_work = _dense_work(op.dim, _product_cost(*_squaring_plan(lam * t)))
            assert plan(op, t) == (dense_work < vector, min(vector, dense_work))


def final_rows(p0, t, trajectories, seed, p=P2):
    return np.concatenate(list(_final_blocks(p0, t, trajectories, seed, p)))


# sha256 of the int8 final rows of `_final_blocks`, concatenated over
# blocks: the sampled paths, fixed by (initial law, t, trajectories, seed)
SAMPLER_PINS = {
    # simulate --L 4 --t 4 --seed 1 --trajectories 10000: 3 blocks, the jump loop
    "L4-t4": (
        "A000B00A", None, 4.0, 10_000, 1,
        "5bacda6df00bab06b19542ecff42927242539003cfdfa4ba4da0f543568cc1ff",
    ),
    # a sampled start from the canonical law over 2 full blocks and 7 rows
    "multi-block": (
        None, (2, 1, 1), 1.0, 2 * BLOCK + 7, 3,
        "38f7e4757e9d9712effa00a9d90496016b2b86e5aceb128458bb524a4c9020d2",
    ),
    # no proposals: the start draws alone
    "t0": (
        None, (2, 2, 1), 0.0, 1000, 5,
        "ef14fc4e5029aef6fce475e68120ba101ef10f72ed0b7ba6e9d251bff023a8fe",
    ),
}


class TestGillespie:
    @pytest.mark.parametrize("label", SAMPLER_PINS)
    def test_pinned_rows(self, label):
        start, sector, t, n, seed, digest = SAMPLER_PINS[label]
        if start is not None:
            p0 = Measure.point_mass(Config.from_text(start))
        else:
            p0 = canonical(Sector(*sector)).normalize(P2.q0)
        rows = final_rows(p0, t, n, seed, ModelParams(p0.L, Fraction(2), Fraction(1, 2)))
        assert rows.dtype == np.int8 and rows.shape == (n, 2 * p0.L)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_two_site_chain(self):
        # A0 -> 0A at rate r, back at rate l: P(0A at t) = r/(r+l) (1 - e^{-(r+l) t})
        t, n = 0.4, 20_000
        rows = final_rows(Measure.point_mass(Config.from_text("A0")), t, n, 7, P1)
        r, ell = float(P1.r), float(P1.ell)
        p = r / (r + ell) * (1.0 - math.exp(-(r + ell) * t))
        freq = float(np.mean(rows[:, 0] == VACANT))
        assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_frozen_configuration(self):
        vacant = vacant_config(2)
        rows = final_rows(Measure.point_mass(vacant), 5.0, 100, 7)
        assert rows.shape == (100, 4)
        assert all(tuple(row) == vacant.occ for row in rows.tolist())

    def test_block_layout(self):
        # block b of a run draws from its own stream, so a longer run only
        # appends blocks: its first BLOCK rows are a run of BLOCK
        p0 = canonical(SECTOR11).normalize(P2.q0)
        blocks = list(_final_blocks(p0, 1.0, 2 * BLOCK + 7, 3, P2))
        assert [len(b) for b in blocks] == [BLOCK, BLOCK, 7]
        assert np.array_equal(blocks[0], final_rows(p0, 1.0, BLOCK, 3))

    def test_sampler_work(self):
        # lam = (2L - 1) max(r, l) = 6 at L = 2; three blocks each step
        # about lam * sum(ts) times
        n = 2 * BLOCK + 7
        assert sampler_work(P2, n, [1.0, 4.0]) == (n * (2 + 6.0 * 5.0), 3 * 6.0 * 5.0)
        assert sampler_work(P2, n, [0.0]) == (n, 0.0)

    def test_reproducible_trajectories(self):
        p0 = Measure.point_mass(Config.from_text("A0BA"))
        zs = [Config.from_coordinates(2, x=(-1,)), Config.from_coordinates(2, y=(1,))]

        def estimates(seed):
            return estimate_Q_many(zs, p0, 2.0, 200, seed, P2)

        assert estimates(11) == estimates(11)
        assert estimates(11) != estimates(12)

    def test_empirical_distribution_matches_kernel(self):
        # 1e5 independent trajectories at a fixed horizon against the
        # uniformized kernel column, within 3-sigma multinomial bands
        start = Config.from_text("AB00")
        t, n = 1.0, 100_000
        rows, hits = np.unique(
            final_rows(Measure.point_mass(start), t, n, 2024), axis=0, return_counts=True
        )
        counts = dict(zip(map(tuple, rows.tolist()), hits.tolist()))
        configs = enumerate_sector(SECTOR11)
        kernel = sector_kernel(t).matrix
        col = configs.index(start)
        for row, c in enumerate(configs):
            p = kernel[row, col]
            freq = counts.get(c.occ, 0) / n
            band = 3.0 * math.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= band + 1e-12, (c.text(), freq, p)

    def test_long_run_occupancy(self):
        # sector occupation frequencies at a mixing horizon (the kernel is
        # within 1e-9 of stationary at t = 20) against the canonical
        # measure, within per-configuration binomial 4-sigma bands
        t, n = 20.0, 20_000
        start = Measure.point_mass(Config.from_text("AB00"))
        rows, hits = np.unique(final_rows(start, t, n, 31337), axis=0, return_counts=True)
        counts = dict(zip(map(tuple, rows.tolist()), hits.tolist()))
        configs = enumerate_sector(SECTOR11)
        assert set(counts) <= {c.occ for c in configs}
        mu = canonical(SECTOR11)
        for c in configs:
            p = mu.probability(c, P2.q0)
            freq = counts.get(c.occ, 0) / n
            assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (c.text(), freq, p)


class TestEstimators:
    def test_constant_observable(self):
        p0 = Measure.point_mass(Config.from_text("A0BA"))
        est = estimate_Q_many([Config.from_coordinates(2)], p0, 0.5, 200, 5, P2)[0]
        assert est == QEstimate(mean=1.0, stderr=0.0, n=200)

    def test_zero_time_point_mass(self):
        eta = Config.from_text("A0BA")
        z = Config.from_coordinates(2, x=(-1,), y=(1,))
        est = estimate_Q_many([z], Measure.point_mass(eta), 0.0, 50, 5, P2)[0]
        assert est.mean == reference_q(z, eta).eval(P2.q0)
        assert est.stderr == 0.0

    def test_shared_trajectories(self):
        p0 = Measure.point_mass(Config.from_text("A0BA"))
        zs = [Config.from_coordinates(2, x=(-1,)), Config.from_coordinates(2, y=(1,))]
        both = estimate_Q_many(zs, p0, 0.7, 500, 9, P2)
        single = estimate_Q_many(zs[:1], p0, 0.7, 500, 9, P2)[0]
        assert both[0] == single

    def test_counts_merge_blocks(self):
        # rows counted block by block and merged give the means of the rows
        p0 = canonical(SECTOR11).normalize(P2.q0)
        zs = [Config.from_coordinates(2, x=(-1,)), Config.from_coordinates(2, x=(0,), y=(2,))]
        n = 2 * BLOCK + 7
        rows = final_rows(p0, 1.0, n, 3)
        means = q_values(config_rows(zs), rows, P2.q0).mean(axis=1)
        estimates = estimate_Q_many(zs, p0, 1.0, n, 3, P2)
        assert [e.mean for e in estimates] == pytest.approx(means.tolist(), rel=1e-14)

    def test_sampled_initial_distribution(self):
        p0 = canonical(SECTOR11).normalize(P2.q0)
        est = estimate_Q_many([Config.from_coordinates(2)], p0, 0.0, 300, 21, P2)[0]
        assert est.mean == 1.0


class TestDualityRhs:
    def test_zero_time_reduces_to_initial_mean(self):
        eta = Config.from_text("A0BA")
        p0 = Measure.point_mass(eta)
        for z in (Config.from_coordinates(2, x=(0,)), Config.from_coordinates(2, x=(2,), y=(1,))):
            expected = reference_q(z, eta).eval(P2.q0)
            assert duality_rhs([z], p0, 0.0, P2)[0] == pytest.approx(expected)

    def test_stationary_initial_distribution(self):
        p0 = canonical(Sector(2, 2, 1)).normalize(P2.q0)
        z = Config.from_coordinates(2, x=(0,), y=(1,))
        values = [duality_rhs([z], p0, t, P2)[0] for t in (0.0, 0.5, 1.0, 2.0)]
        assert max(values) - min(values) < 1e-10

    def test_long_time_limit_is_sum_rule_constant(self):
        source = Sector(2, 2, 1)
        target = Sector(2, 1, 1)
        p0 = canonical(source).normalize(P2.q0)
        lam = next(
            lam
            for n, m, np_, mp_, lam in sum_rule_table(2)
            if (n, m, np_, mp_) == (2, 1, 1, 1)
        ).eval(P2.q0)
        mu = canonical(target)
        for z in enumerate_sector(target)[:4]:
            limit = duality_rhs([z], p0, 200.0, P2)[0]
            assert limit == pytest.approx(
                lam * mu.probability(z, P2.q0), abs=1e-9
            )

    def test_exact_law_closes_duality(self):
        # E Q_z(eta_t) under the exact law of eta_t, started from a mix of
        # two sectors, against the few-particle prediction
        starts = config_rows([Config.from_text("A0BA"), Config.from_text("AB00")])
        p0 = Measure(starts, [0.25, 0.75])
        rows, weights = law_at(p0, 1.5, P2)
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        zs = enumerate_sector(Sector(2, 1, 1))[:5] + enumerate_sector(Sector(2, 2, 0))[:3]
        means, variances = q_moments(config_rows(zs), rows, weights, P2.q0)
        for z, mean, var in zip(zs, means, variances):
            assert mean == pytest.approx(duality_rhs([z], p0, 1.5, P2)[0], rel=1e-12, abs=1e-15)
            assert var >= 0.0

    @pytest.mark.parametrize("L", [1, 2, 4])
    def test_batch_equals_single(self, L):
        # one kernel per sector for all zs gives the per-z predictions bit for bit
        from asep2.cli import default_dual_coordinates, default_initial_config

        p = ModelParams(L, Fraction(2), Fraction(1, 2))
        zs = default_dual_coordinates(L)
        p0 = Measure.point_mass(default_initial_config(L))
        for t in (0.0, 1.0, 4.0):
            assert duality_rhs(zs, p0, t, p) == [duality_rhs([z], p0, t, p)[0] for z in zs]

    def test_against_monte_carlo(self):
        eta = Config.from_text("A0BA")
        p0 = Measure.point_mass(eta)
        z = Config.from_coordinates(2, x=(-1,))
        est = estimate_Q_many([z], p0, 1.0, 20_000, 99, P2)[0]
        rhs = duality_rhs([z], p0, 1.0, P2)[0]
        assert abs(est.mean - rhs) <= 3.0 * est.stderr
