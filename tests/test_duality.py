from fractions import Fraction

import numpy as np
import pytest

from asep2.duality import (
    NotConstant,
    Qz,
    build_S,
    check_duality,
    check_sum_rules,
    duality_closed_form,
    duality_from_symmetry,
    duality_function,
    q_hat,
    qz_value,
    sum_rule,
    sum_rule_table,
    tilde_duality,
    tilde_qa,
)
from asep2.generator import ModelParams, Ring, build_H, h_exact
from asep2.lattice import (
    Config,
    Positions,
    Sector,
    all_configs,
    enumerate_sector,
    vacant_config,
)
from asep2.qring import LaurentPoly
from asep2.sparse import commutator


class TestDualityFunctions:
    def test_projector_kills_mismatch(self):
        c = Config.from_text("0A")
        assert Qz(Positions(1, x=(0,)), c) == LaurentPoly.zero()
        assert Qz(Positions(1, y=(1,)), c) == LaurentPoly.zero()

    def test_lone_particle_is_one(self):
        c = Config.from_text("A0")
        assert Qz(Positions(1, x=(0,)), c) == LaurentPoly.one()

    def test_counts_left_neighbours(self):
        c = Config.from_text("AA")
        assert Qz(Positions(1, x=(1,)), c) == LaurentPoly.q_power(1)
        assert Qz(Positions(1, x=(0,)), c) == LaurentPoly.q_power(-1)
        c = Config.from_text("BB")
        assert Qz(Positions(1, y=(1,)), c) == LaurentPoly.q_power(-1)

    def test_product_empty(self):
        z = Positions(2)
        for c in all_configs(2):
            assert Qz(z, c) == LaurentPoly.one()

    def test_product_is_monomial_on_support(self):
        for c in all_configs(2):
            z = c.to_positions()
            value = Qz(z, c)
            assert value.is_monomial

    def test_mismatched_coordinate(self):
        z = Positions(2, x=(0,))
        assert Qz(z, Config.from_text("0B00")) == LaurentPoly.zero()

    def test_duality_unit_on_empty(self):
        z = Positions(1)
        for c in all_configs(1):
            assert duality_function(z, c) == LaurentPoly.one()

    def test_sector_vanishing(self):
        z = Positions(1, x=(0,))
        assert duality_function(z, Config.from_text("0B")) == LaurentPoly.zero()

    def test_worked_example(self):
        z = Positions(1, x=(1,))
        assert duality_function(z, Config.from_text("AA")) == LaurentPoly.one()

    def test_numeric_matches_ring(self):
        q0 = 2.0
        for c in all_configs(2):
            z = Positions(2, x=c.to_positions().x[:1], y=c.to_positions().y[:1])
            assert qz_value(z, c.occ, 2, q0) == pytest.approx(Qz(z, c).eval(q0))


class TestSymmetryOperator:
    def test_vacuum_row_is_summation_vector(self):
        S = build_S(1)
        row = S.row(vacant_config(1).ternary_index() - 1)
        assert len(row) == 9 and all(v == 1 for v in row.values())

    def test_commutes_with_generator(self):
        assert commutator(build_S(1), h_exact(1)).is_zero()

    def test_building_ladders_commute(self):
        from asep2.qsym import build_Y

        assert commutator(build_Y(1, -1, 2), build_Y(2, +1, 2)).is_zero()

    def test_rows_are_duality_products(self):
        S = build_S(1)
        for zc in all_configs(1):
            z = zc.to_positions()
            row = S.row(zc.ternary_index() - 1)
            for c in all_configs(1):
                got = row.get(c.ternary_index() - 1, LaurentPoly.zero())
                assert got == Qz(z, c)


class TestDualityMatrix:
    def test_constructions_agree_l1(self):
        closed = duality_closed_form(1)
        sym = duality_from_symmetry(1)
        assert closed == sym

    def test_intertwining_l1(self):
        D = duality_closed_form(1)
        H = h_exact(1)
        assert (D @ H - H.transpose() @ D).is_zero()

    def test_block_structure(self):
        D = duality_closed_form(1)
        configs = all_configs(1)
        for (r, c) in D.entries:
            assert configs[r].N <= configs[c].N
            assert configs[r].M <= configs[c].M

    def test_diagonal_operator_form(self):
        z = Positions(1, x=(0,))
        op = q_hat(z, 1)
        assert op.is_diagonal()
        for c in all_configs(1):
            i = c.ternary_index() - 1
            got = op.get(i, i)
            assert (got if got is not None else LaurentPoly.zero()) == Qz(z, c)

    def test_full_check_l1(self):
        report = check_duality(1)
        assert report.passed, report.render()


class TestDynamicDuality:
    def test_kernel_identity_at_q_one(self):
        # with symmetric rates the reversible weight is flat, so the raw
        # duality products intertwine the kernel with its transpose:
        # <s| Q_z exp(-Ht) |eta> = sum_z' <z'|exp(-Ht)|z> <s| Q_z' |eta>
        from asep2.dynamics import evolve

        for L, t in ((1, 0.7), (2, 0.4)):
            p = ModelParams(L, Fraction(1), Fraction(1))
            configs = all_configs(L)
            dim = len(configs)
            qmat = np.zeros((dim, dim))
            for zi, zc in enumerate(configs):
                z = zc.to_positions()
                for ci, c in enumerate(configs):
                    qmat[zi, ci] = qz_value(z, c.occ, L, 1.0)
            kernel = evolve(build_H(p, Ring.FLOAT), t).matrix
            assert float(np.max(np.abs(qmat @ kernel - kernel.T @ qmat))) < 1e-10


class TestTildeVariants:
    def test_leftmost_particle_is_one(self):
        c = Config.from_text("A0B0")
        assert tilde_qa(-1, c) == LaurentPoly.one()

    def test_single_species_reduction(self):
        # with no B coordinates the product depends on left counts only
        c = Config.from_text("A0AA")
        z = Positions(2, x=(1, 2))
        left_counts = [1, 2]
        expect = LaurentPoly.q_power(2 * sum(left_counts))
        assert tilde_duality(z, c) == expect

    def test_sector_constant_ratio(self):
        # tilde product = two-sided product * q^(n(N-1) - m(M-1)) on a sector
        L = 2
        for n_z, m_z, sector in (
            ((0,), (1,), Sector(2, 1, 1)),
            ((-1, 0), (), Sector(2, 2, 1)),
            ((), (0, 2), Sector(2, 1, 2)),
        ):
            z = Positions(L, x=n_z, y=m_z)
            n, m = z.N, z.M
            for eta in enumerate_sector(sector):
                two_sided = Qz(z, eta)
                ratio = LaurentPoly.q_power(n * (sector.N - 1) - m * (sector.M - 1))
                assert tilde_duality(z, eta) == two_sided * ratio


class TestSumRule:
    def test_lambda_equal_sectors_l1(self):
        res = sum_rule(Sector(1, 1, 0), Sector(1, 1, 0))
        assert res.lam == LaurentPoly.one()

    def test_lambda_zero_when_dual_bigger(self):
        res = sum_rule(Sector(1, 0, 0), Sector(1, 1, 0))
        assert res.lam == LaurentPoly.zero()

    def test_lambda_empty_pair(self):
        res = sum_rule(Sector(1, 0, 0), Sector(1, 0, 0))
        assert res.lam == LaurentPoly.one()

    def test_all_pairs_l1(self):
        report = check_sum_rules(1)
        assert report.passed, report.render()

    def test_table_size(self):
        rows = sum_rule_table(1)
        assert len(rows) == 36  # 6 sectors at L=1, all ordered pairs

    def test_not_constant_is_surfaced(self):
        # a deliberately skewed weight must make the two sides disagree
        # visibly instead of being averaged away
        import asep2.duality as dual
        from asep2.measures import pi_exponent

        original = dual.pi_unnormalized
        try:
            dual.pi_unnormalized = lambda c: LaurentPoly.q_power(
                pi_exponent(c) + c.N
            )
            with pytest.raises(NotConstant):
                dual.sum_rule(Sector(1, 1, 0), Sector(1, 0, 0))
        finally:
            dual.pi_unnormalized = original
