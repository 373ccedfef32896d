import io
import math
from fractions import Fraction

import numpy as np
import pytest

from asep2.generator import ModelParams, Ring, build_H_sector, h_exact
from asep2.lattice import (
    A,
    B,
    Config,
    Positions,
    Sector,
    all_configs,
    sites,
)
from asep2.measures import (
    DegenerateWidth,
    canonical,
    check_grandcanonical_stationarity,
    check_marginal_independence,
    check_partition_functions,
    check_reversibility,
    check_shock_agreement,
    check_uniqueness,
    grandcanonical,
    grandcanonical_mixture,
    pi_exponent,
    pi_exponent_positions,
    pi_from_positions,
    pi_unnormalized,
    pure_marginal,
    pure_measure,
    sector_weight_sum,
    shock_profile,
    stationary_vector,
    write_measure_csv,
    write_profile_csv,
)
from asep2.qring import LaurentPoly, q_multinomial

P2 = ModelParams(2, Fraction(2), Fraction(1, 2))


class TestReversibleWeight:
    def test_vacant(self):
        from asep2.lattice import vacant_config

        assert pi_unnormalized(vacant_config(2)) == LaurentPoly.one()

    def test_single_bond(self):
        assert pi_unnormalized(Config.from_text("A0")) == LaurentPoly.q_power(-1)
        assert pi_unnormalized(Config.from_text("0A")) == LaurentPoly.q_power(1)

    def test_detailed_balance_on_bond(self):
        # weight(A0) * r = weight(0A) * l = w, with r = w q and l = w/q
        q = LaurentPoly.q_power(1)
        qinv = LaurentPoly.q_power(-1)
        left = pi_unnormalized(Config.from_text("A0")) * q
        right = pi_unnormalized(Config.from_text("0A")) * qinv
        assert left == right == LaurentPoly.one()

    def test_single_a_from_positions(self):
        for x in sites(2):
            z = Positions(2, x=(x,))
            assert pi_from_positions(z) == LaurentPoly.q_power(2 * x - 1)

    def test_position_form_agrees_exhaustively(self):
        for L in (1, 2, 3):
            for c in all_configs(L):
                assert pi_exponent(c) == pi_exponent_positions(c.to_positions())


class TestCanonical:
    def test_partition_value_l1(self):
        assert sector_weight_sum(Sector(1, 1, 0)) == LaurentPoly.q_power(
            -1
        ) + LaurentPoly.q_power(1)

    def test_partition_trivial(self):
        assert sector_weight_sum(Sector(2, 0, 0)) == LaurentPoly.one()

    def test_partition_mixed_sector(self):
        assert sector_weight_sum(Sector(2, 1, 1)) == q_multinomial(4, 1, 1)

    def test_partition_identities(self):
        report = check_partition_functions(3)
        assert report.passed, report.render()

    def test_measure_fields(self):
        mu = canonical(Sector(2, 1, 1))
        assert mu.partition == q_multinomial(4, 1, 1)
        assert len(mu.weights) == 12

    def test_probabilities_sum_to_one(self):
        mu = canonical(Sector(2, 2, 1))
        total = sum(mu.probability(c, 2.0) for c in mu.support())
        assert total == pytest.approx(1.0, abs=1e-12)


class TestGrandcanonical:
    def test_normalised(self):
        mu = grandcanonical(0.0, 0.0, P2)
        assert sum(mu.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_concentration_limit(self):
        from asep2.lattice import vacant_config

        mu = grandcanonical(-40.0, -40.0, P2)
        assert mu.weights[vacant_config(2)] == pytest.approx(1.0, abs=1e-10)

    def test_stationary(self):
        report = check_grandcanonical_stationarity(P2)
        assert report.passed, report.render()

    def test_mixture_form_equal(self):
        order = all_configs(2)
        direct = grandcanonical(0.4, -0.7, P2).as_vector(order)
        mixture = grandcanonical_mixture(0.4, -0.7, P2).as_vector(order)
        assert float(np.max(np.abs(direct - mixture))) < 1e-12


class TestPureMeasures:
    def test_marginal_symmetric_point(self):
        # e^nu q^(2k-1) = 1 at nu = -(2k-1) ln q
        p = P2
        k = 1
        nu = -(2 * k - 1) * math.log(p.q0)
        assert pure_marginal(A, nu, p, k) == pytest.approx(0.5)

    def test_product_factorisation(self):
        mu = pure_measure(A, 0.3, P2)
        assert sum(mu.weights.values()) == pytest.approx(1.0, abs=1e-12)
        for j in sites(2):
            for k in sites(2):
                if j >= k:
                    continue
                aj = sum(w for c, w in mu.items() if c.state(j) == A)
                ak = sum(w for c, w in mu.items() if c.state(k) == A)
                ajk = sum(
                    w for c, w in mu.items() if c.state(j) == A and c.state(k) == A
                )
                assert ajk == pytest.approx(aj * ak, abs=1e-10)

    def test_b_mirrors_a(self):
        for k in sites(2):
            assert pure_marginal(B, 0.7, P2, k) == pytest.approx(
                pure_marginal(A, 0.7, P2, 1 - k)
            )

    def test_support(self):
        mu = pure_measure(B, 0.0, P2)
        assert all(c.N == 0 for c in mu.support())


class TestShockProfile:
    def test_tanh_equals_logistic(self):
        p = ModelParams.from_qw(3, 2)
        profile = shock_profile(A, 0.3, p)
        for i in range(20):
            k = -2.0 + 0.35 * i
            logistic = math.exp(0.3) * 2.0 ** (2 * k - 1)
            logistic /= 1.0 + math.exp(0.3) * 2.0 ** (2 * k - 1)
            assert profile.density(k) == pytest.approx(logistic, abs=1e-12)

    def test_half_at_center(self):
        profile = shock_profile(A, 0.9, ModelParams.from_qw(2, 2))
        assert profile.density(profile.kappa) == pytest.approx(0.5)

    def test_saturation(self):
        profile = shock_profile(A, 0.0, ModelParams.from_qw(2, 2))
        assert profile.density(60.0) == pytest.approx(1.0)
        assert profile.density(-60.0) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_width(self):
        with pytest.raises(DegenerateWidth):
            shock_profile(A, 0.0, ModelParams(2, Fraction(1), Fraction(1)))

    def test_mixture_agreement(self):
        report = check_shock_agreement(3)
        assert report.passed, report.render()


class TestReversibility:
    @pytest.mark.parametrize("L", [1, 2])
    def test_exact(self, L):
        report = check_reversibility(h_exact(L), L)
        assert report.passed, report.render()

    def test_q_one_reduces_to_symmetry(self):
        H = h_exact(1).map_entries(lambda v: v.at_one())
        assert H == H.transpose()


class TestUniqueness:
    def test_sector_kernels(self):
        report = check_uniqueness(P2, 2)
        assert report.passed, report.render()

    def test_stationary_vector_solves(self):
        op = build_H_sector(P2, Sector(2, 1, 1), Ring.FLOAT)
        vec = stationary_vector(op)
        assert float(np.max(np.abs(op.to_numpy() @ vec))) < 1e-12
        assert vec.sum() == pytest.approx(1.0)


class TestMomentIndependence:
    def test_l2(self):
        report = check_marginal_independence(2)
        assert report.passed, report.render()


class TestCsv:
    def test_profile(self):
        fh = io.StringIO()
        write_profile_csv(fh, [(0, 0.5), (1, 0.8)])
        assert fh.getvalue().splitlines()[0] == "site,density"

    def test_measure_exact(self):
        fh = io.StringIO()
        write_measure_csv(fh, canonical(Sector(1, 0, 0)))
        assert fh.getvalue() == "config,weight\n00,1*q^0\n"
