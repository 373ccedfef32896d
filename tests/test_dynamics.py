import math
from fractions import Fraction

import numpy as np
import pytest

from asep2.duality import qz_value, sum_rule_table
from asep2.dynamics import (
    BLOCK,
    QEstimate,
    _final_blocks,
    duality_rhs,
    estimate_Q_many,
    evolve,
    law_at,
    q_moments,
)
from asep2.generator import ModelParams, Ring, build_H, build_H_sector
from asep2.lattice import (
    VACANT,
    Config,
    Sector,
    enumerate_sector,
    vacant_config,
)
from asep2.measures import Measure, canonical

P1 = ModelParams(1, Fraction(2), Fraction(1, 2))
P2 = ModelParams(2, Fraction(2), Fraction(1, 2))
SECTOR11 = Sector(2, 1, 1)


def sector_kernel(t):
    return evolve(build_H_sector(P2, SECTOR11, Ring.FLOAT), t)


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
        mu = canonical(SECTOR11)
        probs = np.array(
            [mu.probability(c, P2.q0) for c in enumerate_sector(SECTOR11)]
        )
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
        mu = canonical(sector)
        pi = np.array([mu.probability(c, p.q0) for c in enumerate_sector(sector)])
        assert np.abs(k.matrix.sum(axis=0) - 1).max() <= 1e-12
        assert k.matrix.min() >= -1e-12
        assert float(np.max(np.abs(k.matrix @ pi - pi))) <= 1e-10
        if t >= 1000.0:
            assert float(np.max(np.abs(k.matrix - pi[:, None]))) <= 1e-8

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
        mu = canonical(sector)
        root = np.sqrt([mu.probability(c, p.q0) for c in enumerate_sector(sector)])
        h = op.to_numpy()
        d, v = np.linalg.eigh(h * root[None, :] / root[:, None])
        reference = (root[:, None] * v) @ (np.exp(-d * t)[:, None] * v.T / root[None, :])
        assert float(np.max(np.abs(evolve(op, t).matrix - reference))) <= 1e-11

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


def final_rows(p0, t, trajectories, seed, p=P2):
    return np.concatenate(list(_final_blocks(p0, t, trajectories, seed, p)))


class TestGillespie:
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
        assert est.mean == qz_value(z, eta.occ, P2.q0)
        assert est.stderr == 0.0

    def test_shared_trajectories(self):
        p0 = Measure.point_mass(Config.from_text("A0BA"))
        zs = [Config.from_coordinates(2, x=(-1,)), Config.from_coordinates(2, y=(1,))]
        both = estimate_Q_many(zs, p0, 0.7, 500, 9, P2)
        single = estimate_Q_many(zs[:1], p0, 0.7, 500, 9, P2)[0]
        assert both[0] == single

    def test_sampled_initial_distribution(self):
        p0 = canonical(SECTOR11).normalize(P2.q0)
        est = estimate_Q_many([Config.from_coordinates(2)], p0, 0.0, 300, 21, P2)[0]
        assert est.mean == 1.0


class TestDualityRhs:
    def test_zero_time_reduces_to_initial_mean(self):
        eta = Config.from_text("A0BA")
        p0 = Measure.point_mass(eta)
        for z in (Config.from_coordinates(2, x=(0,)), Config.from_coordinates(2, x=(2,), y=(1,))):
            assert duality_rhs([z], p0, 0.0, P2)[0] == pytest.approx(
                qz_value(z, eta.occ, P2.q0)
            )

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
        p0 = Measure(2, {Config.from_text("A0BA"): 0.25, Config.from_text("AB00"): 0.75})
        law = law_at(p0, 1.5, P2)
        assert sum(law.weights.values()) == pytest.approx(1.0, abs=1e-12)
        for z in enumerate_sector(Sector(2, 1, 1))[:5] + enumerate_sector(Sector(2, 2, 0))[:3]:
            mean, var = q_moments(z, law, P2.q0)
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
