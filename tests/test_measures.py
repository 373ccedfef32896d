import io
import math
from fractions import Fraction

import numpy as np
import pytest

from asep2 import measures
from asep2.generator import ModelParams, Ring, build_H_sector, h_exact
from asep2.lattice import (
    A,
    B,
    Config,
    Sector,
    all_configs,
    config_rows,
    enumerate_sector,
    mirror,
    occupations,
    sector_occupations,
    sectors,
    sites,
    vacant_config,
)
from asep2.measures import (
    DegenerateWidth,
    Measure,
    canonical,
    check_grandcanonical_stationarity,
    check_marginal_independence,
    check_partition_functions,
    check_reversibility,
    check_shock_agreement,
    check_sector_uniqueness,
    check_uniqueness,
    grandcanonical,
    grandcanonical_mixture,
    pi_exponents,
    pure_marginal,
    ring_moments,
    sector_weight_sum,
    shock_profile,
    write_measure_csv,
    write_profile_csv,
)
from asep2.qring import LaurentPoly, q_multinomial

from helpers import dense, evaluated, pi_exponent

P2 = ModelParams(2, Fraction(2), Fraction(1, 2))


def weight(c: Config) -> LaurentPoly:
    """The reversible weight of one configuration, from `pi_exponents`."""
    return LaurentPoly.q_power(int(pi_exponents(config_rows([c]))[0]))


class TestReversibleWeight:
    def test_vacant(self):
        assert weight(vacant_config(2)) == LaurentPoly.one()

    def test_single_bond(self):
        assert weight(Config.from_text("A0")) == LaurentPoly.q_power(-1)
        assert weight(Config.from_text("0A")) == LaurentPoly.q_power(1)

    def test_detailed_balance_on_bond(self):
        # weight(A0) * r = weight(0A) * l = w, with r = w q and l = w/q
        q = LaurentPoly.q_power(1)
        qinv = LaurentPoly.q_power(-1)
        left = weight(Config.from_text("A0")) * q
        right = weight(Config.from_text("0A")) * qinv
        assert left == right == LaurentPoly.one()

    def test_single_a_from_positions(self):
        for x in sites(2):
            c = Config.from_coordinates(2, x=(x,))
            assert weight(c) == LaurentPoly.q_power(2 * x - 1)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_against_loop(self, L):
        # every basis row against the loop over its sites
        rows = occupations(L)
        expected = [pi_exponent(row) for row in rows.tolist()]
        assert pi_exponents(rows).tolist() == expected


    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_mirror_invariant(self, L):
        # J (sites reversed, A and B exchanged) keeps the weight exactly on
        # N = M sectors; it maps (N, M) onto (M, N), whose weights differ
        # from the images' by one constant per sector
        for sector in sectors(L):
            rows = sector_occupations(sector)
            if sector.N == sector.M:
                assert np.array_equal(pi_exponents(rows[mirror(rows)]), pi_exponents(rows))
                continue
            images = (A + B) - rows[:, ::-1]
            shift = pi_exponents(images) - pi_exponents(rows)
            assert len(np.unique(shift)) == 1


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
        for L in (1, 2, 3):
            report = check_partition_functions(L)
            assert report.passed, report.render()

    def test_measure_fields(self):
        mu = canonical(Sector(2, 1, 1))
        assert mu.partition == q_multinomial(4, 1, 1)
        assert len(mu.weights) == 12

    def test_probabilities_sum_to_one(self):
        mu = canonical(Sector(2, 2, 1))
        total = sum(mu.probability(c, 2.0) for c in enumerate_sector(Sector(2, 2, 1)))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert mu.probability(vacant_config(2), 2.0) == 0.0


class TestGrandcanonical:
    def test_normalised(self):
        mu = grandcanonical(0.0, 0.0, P2)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_concentration_limit(self):
        mu = grandcanonical(-40.0, -40.0, P2)
        assert mu.probability(vacant_config(2)) == pytest.approx(1.0, abs=1e-10)

    def test_stationary(self):
        report = check_grandcanonical_stationarity(P2)
        assert report.passed, report.render()

    def test_mixture_form_equal(self):
        direct = grandcanonical(0.4, -0.7, P2)
        mixture = grandcanonical_mixture(0.4, -0.7, P2)
        assert np.array_equal(direct.rows, occupations(2))
        assert np.all(mixture > 0)
        assert float(np.max(np.abs(direct.weights - mixture))) < 1e-12

    @pytest.mark.parametrize("nu, mu", [(-math.inf, 0.0), (0.0, -math.inf), (-math.inf, 0.7)])
    def test_mixture_at_zero_fugacity(self, nu, mu):
        # a chemical potential of -inf leaves out that species' sectors,
        # where e^(nu N) would be -inf * 0 at N = 0
        direct = grandcanonical(nu, mu, P2)
        mixture = grandcanonical_mixture(nu, mu, P2)
        support = mixture > 0
        assert np.array_equal(occupations(2)[support], direct.rows)
        assert float(np.max(np.abs(direct.weights - mixture[support]))) < 1e-12
        assert mixture.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "table",
        [
            lambda: measures._basis_q_powers(2, P2.q0),
            lambda: measures._sector_q_powers(Sector(2, 1, 1), P2.q0)[0],
        ],
        ids=["basis", "sector"],
    )
    def test_cached_q_powers_read_only(self, table):
        # a caller that scaled a cached table in place would change every
        # later grid of the stationarity and shock checks
        with pytest.raises(ValueError):
            table()[0] = 0.0


class TestPureMeasures:
    def test_marginal_symmetric_point(self):
        # e^nu q^(2k-1) = 1 at nu = -(2k-1) ln q
        p = P2
        k = 1
        nu = -(2 * k - 1) * math.log(p.q0)
        assert pure_marginal(A, nu, p, k) == pytest.approx(0.5)

    def test_product_factorisation(self):
        mu = grandcanonical(0.3, -math.inf, P2)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        held = mu.rows == A
        for j in sites(2):
            for k in sites(2):
                if j >= k:
                    continue
                aj, ak = held[:, j + 1], held[:, k + 1]
                ajk = mu.weights[aj & ak].sum()
                assert ajk == pytest.approx(mu.weights[aj].sum() * mu.weights[ak].sum(), abs=1e-10)

    def test_b_mirrors_a(self):
        for k in sites(2):
            assert pure_marginal(B, 0.7, P2, k) == pytest.approx(
                pure_marginal(A, 0.7, P2, 1 - k)
            )

    def test_support(self):
        # zero fugacity keeps exactly the configurations without that species
        mu = grandcanonical(-math.inf, 0.0, P2)
        assert mu.rows.tolist() == [list(c.occ) for c in all_configs(2) if c.N == 0]
        mu = grandcanonical(0.0, -math.inf, P2)
        assert mu.rows.tolist() == [list(c.occ) for c in all_configs(2) if c.M == 0]

    @pytest.mark.parametrize("chem", [-1e6, 700.0, 800.0, 1e6])
    def test_large_chemical_potentials(self, chem):
        for weights in (
            grandcanonical(chem, -math.inf, P2).weights,
            grandcanonical(-math.inf, chem, P2).weights,
            grandcanonical(chem, 0.0, P2).weights,
            grandcanonical(0.0, chem, P2).weights,
            grandcanonical(chem, chem, P2).weights,
            grandcanonical_mixture(chem, chem, P2),
        ):
            weights = weights.tolist()
            assert all(math.isfinite(w) for w in weights)
            assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        for species in (A, B):
            for k in sites(2):
                expected = 1.0 if chem > 0 else 0.0
                assert pure_marginal(species, chem, P2, k) == pytest.approx(expected)


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
        H = evaluated(h_exact(1), 1.0)
        assert H == H.transpose()


class TestUniqueness:
    def test_sector_kernels(self):
        report = check_uniqueness(P2)
        assert report.passed, report.render()

    def test_stationary_vector_solves(self):
        # the canonical probabilities are killed by the float generator
        sector = Sector(2, 1, 1)
        op = build_H_sector(P2, sector, Ring.FLOAT)
        vec = canonical(sector).normalize(P2.q0).weights
        assert float(np.max(np.abs(dense(op) @ vec))) < 1e-12
        assert vec.sum() == pytest.approx(1.0)

    def test_every_sector_at_l5(self):
        report = check_uniqueness(ModelParams(5, Fraction(2), Fraction(1, 2)))
        assert len(report.results) == 2 * 66
        assert report.passed, report.render()

    def test_largest_sector_at_l19(self):
        # (2, 1): the largest sector of L = 19 with at most 30,000 rows
        sector = Sector(19, 2, 1)
        assert sector.size == 25_308
        report = check_sector_uniqueness(ModelParams(19, Fraction(2), Fraction(1, 2)), sector)
        assert report.lines() == [
            "RELATION L19:kernel-dimension-N2-M1 PASS",
            "RELATION L19:kernel-matches-canonical-N2-M1 PASS",
        ]


class TestMomentIndependence:
    def test_l2(self):
        report = check_marginal_independence(2)
        assert report.passed, report.render()

    @pytest.mark.parametrize("species", [A, B])
    def test_moments_against_loop(self, species):
        # every sector's moments against the sum of reversible weights over
        # its configurations with the species at every site of the tuple
        lam = list(sites(2))
        tuples = [(k,) for k in lam] + [(k1, k2) for k1 in lam for k2 in lam if k1 < k2]
        for n in range(5):
            for m in range(5 - n):
                sector = Sector(2, n, m)
                expected = [
                    sum(
                        (
                            LaurentPoly.q_power(pi_exponent(c.occ))
                            for c in enumerate_sector(sector)
                            if all(c.occ[k + c.L - 1] == species for k in sites_tuple)
                        ),
                        LaurentPoly.zero(),
                    )
                    for sites_tuple in tuples
                ]
                assert ring_moments(sector, tuples, species) == expected


class TestCsv:
    def test_profile(self):
        fh = io.StringIO()
        write_profile_csv(fh, [(0, 0.5), (1, 0.8)])
        assert fh.getvalue().splitlines()[0] == "site,density"

    def test_measure_exact(self):
        fh = io.StringIO()
        write_measure_csv(fh, canonical(Sector(1, 0, 0)))
        assert fh.getvalue() == "config,weight\n00,1*q^0\n"

    def test_measure_rows_in_basis_order(self):
        # rows given in reverse order are written by basis index
        configs = all_configs(2)
        fh = io.StringIO()
        write_measure_csv(fh, Measure(occupations(2)[::-1], np.ones(len(configs))))
        rows = [line.split(",")[0] for line in fh.getvalue().splitlines()[1:]]
        assert rows == [c.text() for c in configs]
