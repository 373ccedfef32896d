import numpy as np
import pytest

from asep2 import qsym
from asep2.generator import h_exact
from asep2.lattice import (
    A,
    VACANT,
    Config,
    SiteOutOfRange,
    all_configs,
    sites,
    vacant_config,
)
from asep2.qring import LaurentPoly, q_number
from asep2.qsym import (
    A_MINUS,
    A_PLUS,
    B_MINUS,
    B_PLUS,
    C_MINUS,
    C_PLUS,
    IDENT3,
    PROJ_A,
    PROJ_B,
    PROJ_V,
    build_Y,
    build_Y_site,
    check_algebra_relations,
    check_conjugation_lemma,
    check_fundamental_matrices,
    check_symmetry,
    h_diag,
    l_op,
    mat3_mul,
    mat3_transpose,
    site_embed,
    species_counts,
)
from asep2.sparse import SparseMatrix, commutator

from helpers import coordinates, count_left, dense, evaluated, matrix_row


def count_op(L: int, i: int) -> SparseMatrix:
    """Number operator of species T_i (A, vacancy, B) as a constant diagonal."""
    return SparseMatrix.diagonal([LaurentPoly.const(t) for t in species_counts(L)[i - 1]])


class TestSiteEmbed:
    def test_identity(self):
        for k in sites(1):
            assert site_embed(IDENT3, k, 1) == SparseMatrix.identity(9)

    def test_projector_eigenvalues(self):
        for k in sites(2):
            op = site_embed(PROJ_A, k, 2)
            assert op.is_diagonal()
            for c in all_configs(2):
                i = c.index
                got = op.get(i, i)
                held = c.occ[k + c.L - 1] == A
                assert (got if got is not None else LaurentPoly.zero()) == int(held)

    def test_distinct_sites_commute(self):
        u = site_embed(A_PLUS, 0, 1)
        v = site_embed(B_MINUS, 1, 1)
        assert u @ v == v @ u

    def test_out_of_range(self):
        with pytest.raises(SiteOutOfRange):
            site_embed(IDENT3, 2, 1)


class TestFundamental:
    def test_composites(self):
        assert mat3_mul(A_PLUS, B_MINUS) == C_PLUS
        assert mat3_mul(B_PLUS, A_MINUS) == C_MINUS

    def test_transposes(self):
        assert mat3_transpose(A_PLUS) == A_MINUS
        assert mat3_transpose(B_PLUS) == B_MINUS
        assert mat3_transpose(C_PLUS) == C_MINUS

    def test_projector_resolution(self):
        total = tuple(
            tuple(PROJ_A[r][c] + PROJ_V[r][c] + PROJ_B[r][c] for c in range(3))
            for r in range(3)
        )
        assert total == IDENT3

    def test_embedded_transpose(self):
        for k in sites(1):
            assert site_embed(A_PLUS, k, 1).transpose() == site_embed(A_MINUS, k, 1)
            assert site_embed(B_MINUS, k, 1).transpose() == site_embed(B_PLUS, k, 1)


class TestLadders:
    def test_row_action_adds_a_particle(self):
        # acting on the left, a single-site lowering term extends the
        # coordinate set by one A and picks up the centred-count power
        L = 2
        for zc in all_configs(L):
            for r in sites(L):
                row = matrix_row(build_Y_site(1, -1, r, L), zc.index)
                if zc.occ[r + zc.L - 1] == VACANT:
                    x, y = coordinates(zc)
                    extended = Config.from_coordinates(L, x + (r,), y)
                    centred = 2 * count_left(zc.occ, r, A) - zc.N
                    expect = {extended.index: LaurentPoly.q_power(-centred)}
                    assert row == expect
                else:
                    assert row == {}

    def test_single_site_nilpotent(self):
        for r in sites(2):
            op = build_Y_site(1, -1, r, 2)
            assert (op @ op).is_zero()

    def test_raising_kills_b_free_states(self):
        y2p = build_Y(2, +1, 2)
        for c in all_configs(2):
            if c.M == 0:
                col = c.index
                assert all(cc != col for (_r, cc), _v in y2p.sorted_items())

    def test_sector_shifts(self):
        # ladder entries move between adjacent sectors only; on kets the
        # A-ladders add/remove an A, the B-ladders remove/add a B
        L = 2
        configs = all_configs(L)
        moves = {
            (1, +1): (1, 0),
            (1, -1): (-1, 0),
            (2, +1): (0, -1),
            (2, -1): (0, 1),
        }
        for (i, s), (dn, dm) in moves.items():
            y = build_Y(i, s, L)
            for (r, c), _v in y.sorted_items():
                src, tgt = configs[c], configs[r]
                assert (tgt.N - src.N, tgt.M - src.M) == (dn, dm)

    def test_number_operator_commutators(self):
        # [N, Y1^s] = s*Y1^s and [M, Y2^s] = -s*Y2^s as exact matrices
        L = 2
        for s in (+1, -1):
            y1 = build_Y(1, s, L)
            assert commutator(count_op(L, 1), y1) == y1.scale(LaurentPoly.const(s))
            y2 = build_Y(2, s, L)
            assert commutator(count_op(L, 3), y2) == y2.scale(LaurentPoly.const(-s))


class TestCartan:
    def test_number_eigenvalues(self):
        n_diag, _, m_diag = species_counts(1)
        c = Config.from_text("AA")
        i = c.index
        assert n_diag[i] == 2 and m_diag[i] == 0
        for cfg in all_configs(1):
            j = cfg.index
            assert n_diag[j] == cfg.N
            assert m_diag[j] == cfg.M

    def test_h1_is_difference(self):
        h1 = SparseMatrix.diagonal([LaurentPoly.const(h) for h in h_diag(1, 2)])
        h2 = SparseMatrix.diagonal([LaurentPoly.const(h) for h in h_diag(2, 2)])
        assert h1 == count_op(2, 1) - count_op(2, 2)
        assert h2 == count_op(2, 2) - count_op(2, 3)

    def test_counter_sum_is_size(self):
        total = count_op(2, 1) + count_op(2, 2) + count_op(2, 3)
        assert total == SparseMatrix.identity(81).scale(LaurentPoly.const(4))

    def test_l_ops_are_half_powers(self):
        c = vacant_config(1)
        i = c.index
        assert l_op(2, 1).get(i, i) == LaurentPoly.q_power(-1)
        assert l_op(1, 1).get(i, i) == LaurentPoly.one()

    def test_qnumber_of_h1(self):
        for h in h_diag(1, 1):
            assert q_number(h).eval(1.0) == h


class TestSymmetry:
    def test_l1(self):
        report = check_symmetry(h_exact(1), 1)
        assert report.passed, report.render()

    def test_q_one_specialisation(self):
        # integer entries at q = 1, so the float products are exact
        H1 = dense(evaluated(h_exact(1), 1.0))
        y = dense(evaluated(build_Y(1, +1, 1), 1.0))
        assert not np.any(H1 @ y - y @ H1)


class TestAlgebraRelations:
    def test_l1(self):
        report = check_algebra_relations(1)
        assert report.passed, report.render()

    def test_mixed_ladders_commute(self):
        assert commutator(build_Y(1, +1, 1), build_Y(2, -1, 1)).is_zero()

    def test_ladder_commutator_is_qnumber(self):
        L = 1
        comm = commutator(build_Y(1, +1, L), build_Y(1, -1, L))
        expect = SparseMatrix.diagonal([q_number(h) for h in h_diag(1, L)])
        assert comm == expect

    def test_report_lines(self):
        lines = check_algebra_relations(1).lines()
        assert all(line.startswith("RELATION ") for line in lines)
        assert any("serre-cubic" in line for line in lines)


class TestConjugationLemma:
    def test_l1(self):
        report = check_conjugation_lemma(1)
        assert report.passed, report.render()

    def test_l3(self):
        # no size cap: L = 3 is beyond what verify runs
        report = check_conjugation_lemma(3)
        assert report.passed, report.render()

    def test_mutated_ladder_fails(self, monkeypatch):
        # a+ replaced by a-: the 3x3 tables and the chain-level checks
        # must all see the change
        monkeypatch.setattr(qsym, "A_PLUS", qsym.A_MINUS)
        report = check_fundamental_matrices()
        report.extend(check_conjugation_lemma(1))
        failed = [line for line in report.lines() if " FAIL " in line]
        assert failed == [
            "RELATION fundamental-products-table FAIL ('a+', 'A', 'right')",
            "RELATION fundamental-c-factorization FAIL c+",
            "RELATION fundamental-transpose FAIL a",
            "RELATION L1:conjugation-single-ap FAIL (0, 0)",
            "RELATION L1:conjugation-product-ap FAIL (0, 1, 0)",
        ]
