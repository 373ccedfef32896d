from fractions import Fraction

import numpy as np
import pytest

from asep2 import duality, measures
from asep2.duality import (
    NotConstant,
    build_S,
    check_duality,
    check_sum_rules,
    duality_closed_form,
    duality_from_symmetry,
    q_exponents,
    q_values,
    sum_rule_table,
)
from asep2.generator import ModelParams, Ring, build_H, h_exact
from asep2.lattice import (
    A,
    Config,
    all_configs,
    config_rows,
    occupations,
    vacant_config,
)
from asep2.measures import pi_hat
from asep2.qring import LaurentPoly, q_multinomial
from asep2.sparse import SparseMatrix, commutator

from helpers import clear_caches, matrix_row, reference_q


def q_pair(z: Config, eta: Config) -> LaurentPoly:
    """Q_z(eta) from `q_exponents` on one pair of rows."""
    exponent, keep = q_exponents(config_rows([z]), config_rows([eta]))
    return LaurentPoly.q_power(int(exponent[0, 0])) if keep[0, 0] else LaurentPoly.zero()


def _closed_form_entry(z_text: str, eta_text: str) -> LaurentPoly:
    """Entry D[z, eta] of the closed-form duality matrix at L = 1."""
    row = Config.from_text(z_text).index
    col = Config.from_text(eta_text).index
    got = duality_closed_form(1).get(row, col)
    return LaurentPoly.zero() if got is None else got


class TestDualityFunctions:
    def test_projector_kills_mismatch(self):
        c = Config.from_text("0A")
        assert q_pair(Config.from_coordinates(1, x=(0,)), c) == LaurentPoly.zero()
        assert q_pair(Config.from_coordinates(1, y=(1,)), c) == LaurentPoly.zero()

    def test_lone_particle_is_one(self):
        c = Config.from_text("A0")
        assert q_pair(Config.from_coordinates(1, x=(0,)), c) == LaurentPoly.one()

    def test_counts_left_neighbours(self):
        c = Config.from_text("AA")
        assert q_pair(Config.from_coordinates(1, x=(1,)), c) == LaurentPoly.q_power(1)
        assert q_pair(Config.from_coordinates(1, x=(0,)), c) == LaurentPoly.q_power(-1)
        c = Config.from_text("BB")
        assert q_pair(Config.from_coordinates(1, y=(1,)), c) == LaurentPoly.q_power(-1)

    def test_product_empty(self):
        z = Config.from_coordinates(2)
        for c in all_configs(2):
            assert q_pair(z, c) == LaurentPoly.one()

    def test_product_is_monomial_on_support(self):
        # one term with coefficient +-1: a signed monomial, a unit of the ring
        for c in all_configs(2):
            (coeff,) = q_pair(c, c).terms.values()
            assert coeff in (1, -1)

    def test_mismatched_coordinate(self):
        z = Config.from_coordinates(2, x=(0,))
        assert q_pair(z, Config.from_text("0B00")) == LaurentPoly.zero()

    def test_duality_unit_on_empty(self):
        for c in all_configs(1):
            assert _closed_form_entry("00", c.text()) == LaurentPoly.one()

    def test_sector_vanishing(self):
        assert _closed_form_entry("A0", "0B") == LaurentPoly.zero()

    def test_worked_example(self):
        assert _closed_form_entry("0A", "AA") == LaurentPoly.one()

    def test_numeric_matches_ring(self):
        # every (z, eta) pair at L <= 2: the array products against the
        # exact loop over z's particles, evaluated at q0
        for L in (1, 2):
            configs = all_configs(L)
            for q0 in (2.0, 1.5):
                values = q_values(occupations(L), occupations(L), q0)
                exact = np.array(
                    [[reference_q(z, c).eval(q0) for c in configs] for z in configs]
                )
                assert np.array_equal(values == 0, exact == 0)
                assert values == pytest.approx(exact, rel=1e-14, abs=0)


class TestSymmetryOperator:
    def test_vacuum_row_is_summation_vector(self):
        S = build_S(1)
        row = matrix_row(S, vacant_config(1).index)
        assert len(row) == 9 and all(v == 1 for v in row.values())

    def test_commutes_with_generator(self):
        assert commutator(build_S(1), h_exact(1)).is_zero()

    def test_building_ladders_commute(self):
        from asep2.qsym import build_Y

        assert commutator(build_Y(1, -1, 2), build_Y(2, +1, 2)).is_zero()

    def test_rows_are_duality_products(self):
        S = build_S(1)
        for z in all_configs(1):
            row = matrix_row(S, z.index)
            for c in all_configs(1):
                got = row.get(c.index, LaurentPoly.zero())
                assert got == reference_q(z, c)


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
        for (r, c), _v in D.sorted_items():
            assert configs[r].N <= configs[c].N
            assert configs[r].M <= configs[c].M

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
            qmat = q_values(occupations(L), occupations(L), 1.0)
            kernel = evolve(build_H(p, Ring.FLOAT), t).matrix
            assert float(np.max(np.abs(qmat @ kernel - kernel.T @ qmat))) < 1e-10


class TestSumRule:
    @staticmethod
    def lam(L, source, target):
        rows = {(n, m, np_, mp_): lam for n, m, np_, mp_, lam in sum_rule_table(L)}
        return rows[(*source, *target)]

    def test_lambda_equal_sectors_l1(self):
        assert self.lam(1, (1, 0), (1, 0)) == LaurentPoly.one()

    def test_lambda_zero_when_dual_bigger(self):
        assert self.lam(1, (0, 0), (1, 0)) == LaurentPoly.zero()

    def test_lambda_empty_pair(self):
        assert self.lam(1, (0, 0), (0, 0)) == LaurentPoly.one()

    def test_all_pairs_l1(self):
        report = check_sum_rules(1)
        assert report.passed, report.render()

    def test_table_size(self):
        rows = sum_rule_table(1)
        assert len(rows) == 36  # 6 sectors at L=1, all ordered pairs

    def test_lambda_is_product_of_gaussian_binomials(self):
        # lambda = [N choose N']_q [M choose M']_q when the dual sector
        # fits inside the source sector, else 0
        for L, size in ((1, 36), (2, 225), (3, 784), (4, 2025)):
            rows = sum_rule_table(L)
            assert len(rows) == size
            for n, m, np_, mp_, lam in rows:
                fits = np_ <= n and mp_ <= m
                expected = (
                    q_multinomial(n, np_, 0) * q_multinomial(m, mp_, 0)
                    if fits
                    else LaurentPoly.zero()
                )
                assert lam == expected, (n, m, np_, mp_)

    def test_not_constant_is_surfaced(self, monkeypatch):
        # a reversible weight skewed by q**N keeps each side constant on
        # sectors (H conserves N) but makes the two disagree, visibly
        # instead of being averaged away
        real = measures.pi_exponents
        monkeypatch.setattr(measures, "pi_exponents", lambda rows: real(rows) + (rows == A).sum(1))
        assert self.not_constant(monkeypatch) == (
            "sides disagree: source (1, 0), target (0, 0), "
            "residual -1*q^-1 + 1*q^0 + -1*q^1 + 1*q^2"
        )

    def test_side_not_constant_is_surfaced(self, monkeypatch):
        # a weight or a duality product skewed where the configuration
        # holds an A at site -L+1 makes one side vary within a sector
        real_pi, real_products = measures.pi_exponents, duality.duality_products
        monkeypatch.setattr(
            measures, "pi_exponents", lambda rows: real_pi(rows) + (rows[:, 0] == A)
        )
        assert self.not_constant(monkeypatch) == (
            "left side depends on z: source (1, 1), target (0, 1), residual -1*q^0 + 1*q^1"
        )

        # Q_z(eta) times q where eta holds that A, on the right side only
        def skewed(L):
            at_first = occupations(L)[:, 0] == A
            return real_products(L) @ SparseMatrix.monomial_diagonal(2 * at_first)

        monkeypatch.setattr(duality, "duality_products", skewed)
        monkeypatch.setattr(
            duality, "duality_closed_form", lambda L: pi_hat(L, -1) @ real_products(L)
        )
        assert self.not_constant(monkeypatch) == (
            "right side depends on eta: source (1, 0), target (0, 0), residual -1*q^0 + 1*q^1"
        )

    @staticmethod
    def not_constant(monkeypatch) -> str:
        """The NotConstant message of `sum_rule_table(1)` under the
        monkeypatched fault, which is undone, caches cleared around it."""
        clear_caches()
        try:
            with pytest.raises(NotConstant) as raised:
                sum_rule_table(1)
        finally:
            monkeypatch.undo()
            clear_caches()
        return str(raised.value)
