import io
from fractions import Fraction

import pytest

from asep2.generator import (
    ModelParams,
    Ring,
    apply_generator,
    build_H,
    build_H_sector,
    dump_matrix,
    h_exact,
    rate_table,
)
from asep2.lattice import A, B, VACANT, Config, Sector, all_configs, enumerate_sector
from asep2.qring import LaurentPoly
from asep2.qsym import species_counts
from asep2.sparse import SparseMatrix, commutator

P1 = ModelParams(1, Fraction(2), Fraction(1, 2))
P2 = ModelParams(2, Fraction(2), Fraction(1, 2))


class TestModelParams:
    def test_derived(self):
        assert P2.q0 == pytest.approx(2.0)
        assert P2.w0 == pytest.approx(1.0)

    def test_from_qw(self):
        p = ModelParams.from_qw(2, 2)
        assert (p.r, p.ell) == (Fraction(2), Fraction(1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(1, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            ModelParams(0, Fraction(1), Fraction(1))


class TestLocalRate:
    FLOAT = rate_table(P1, Ring.FLOAT)
    EXACT = rate_table(P1, Ring.EXACT)

    def test_right_moves(self):
        for s1, s2 in ((A, VACANT), (VACANT, B), (A, B)):
            assert self.FLOAT[s1][s2] == 2.0

    def test_left_moves(self):
        for s1, s2 in ((B, A), (VACANT, A), (B, VACANT)):
            assert self.FLOAT[s1][s2] == 0.5

    def test_frozen_pairs(self):
        for s in (A, B, VACANT):
            assert self.FLOAT[s][s] == 0.0
            assert not self.EXACT[s][s]

    def test_scaled_symbol(self):
        assert self.EXACT[A][VACANT] == LaurentPoly.q_power(1)
        assert self.EXACT[B][A] == LaurentPoly.q_power(-1)


class TestBuildH:
    def test_l1_entry_count(self):
        # 3 exchange pairs on the single bond: 6 off-diagonal + 6 diagonal
        assert h_exact(1).nnz == 12
        assert build_H(P1, Ring.FLOAT).nnz == 12

    def test_specific_entry(self):
        H = build_H(P1, Ring.FLOAT)
        src = Config.from_text("A0").ternary_index() - 1
        tgt = Config.from_text("0A").ternary_index() - 1
        assert H.get(tgt, src) == -2.0
        He = h_exact(1)
        assert He.get(tgt, src) == -LaurentPoly.q_power(1)

    def test_column_sums_vanish(self):
        for ring in (Ring.EXACT, Ring.FLOAT):
            H = build_H(P2, ring)
            for col, s in H.column_sums().items():
                assert not s if ring is Ring.EXACT else s == 0.0

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_summation_vector_annihilates_exactly(self, L):
        for s in h_exact(L).column_sums().values():
            assert not s

    def test_sign_structure(self):
        H = build_H(P2, Ring.FLOAT)
        for (r, c), v in H.entries.items():
            assert v > 0 if r == c else v < 0

    def test_symmetric_at_q_one(self):
        p = ModelParams(2, Fraction(1), Fraction(1))
        H = build_H(p, Ring.FLOAT)
        assert H == H.transpose()
        He = h_exact(2).map_entries(lambda v: v.at_one())
        assert He == He.transpose()

    @pytest.mark.parametrize("L", [1, 2])
    def test_particle_numbers_conserved(self, L):
        H = h_exact(L)
        for counts in species_counts(L):
            n_hat = SparseMatrix.diagonal([LaurentPoly.const(n) for n in counts])
            assert commutator(H, n_hat).is_zero()

    def test_cap(self):
        with pytest.raises(ValueError):
            build_H(ModelParams(4, Fraction(2), Fraction(1, 2)), Ring.EXACT)


class TestSectorH:
    def test_dimension(self):
        op = build_H_sector(P2, Sector(2, 1, 1), Ring.FLOAT)
        assert op.dim == 12

    def test_trivial_sector(self):
        op = build_H_sector(P2, Sector(2, 0, 0), Ring.FLOAT)
        assert op.dim == 1 and op.is_zero()

    def test_blocks_reassemble(self):
        # the sector blocks are exactly the full matrix restricted to them
        H = h_exact(2)
        for n in range(5):
            for m in range(5 - n):
                sector = Sector(2, n, m)
                configs = enumerate_sector(sector)
                idx = [c.ternary_index() - 1 for c in configs]
                block = build_H_sector(P2, sector, Ring.EXACT)
                for i, gi in enumerate(idx):
                    for j, gj in enumerate(idx):
                        assert H.get(gi, gj) == block.get(i, j)
        # and nothing of H lives outside the diagonal blocks
        by_sector = {}
        for c in all_configs(2):
            by_sector[c.ternary_index() - 1] = (c.N, c.M)
        for (r, c) in H.entries:
            assert by_sector[r] == by_sector[c]


class TestApplyGenerator:
    def test_constants_are_harmonic(self):
        for c in all_configs(2):
            assert apply_generator(lambda _: 1.0, c, P2) == 0.0

    def test_particle_count_conserved(self):
        for c in all_configs(2):
            assert apply_generator(lambda e: float(e.N), c, P2) == 0.0

    def test_matches_matrix_float(self):
        H = build_H(P2, Ring.FLOAT)
        configs = all_configs(2)

        def f(c):
            return float(c.ternary_index() % 7)

        vec = [f(c) for c in configs]
        for c in configs:
            col = c.ternary_index() - 1
            matrix_value = -sum(
                v * vec[r] for (r, cc), v in H.entries.items() if cc == col
            )
            assert apply_generator(f, c, P2) == pytest.approx(matrix_value)

    def test_matches_matrix_exact(self):
        H = h_exact(2)
        configs = all_configs(2)

        def f(c):
            return LaurentPoly.q_power(c.N - c.M)

        vec = [f(c) for c in configs]
        for c in configs[:20]:
            col = c.ternary_index() - 1
            matrix_value = LaurentPoly.zero()
            for (r, cc), v in H.entries.items():
                if cc == col:
                    matrix_value = matrix_value - v * vec[r]
            assert apply_generator(f, c, P2, Ring.EXACT) == matrix_value

    def test_delta_function_reads_entry(self):
        H = h_exact(1)
        configs = all_configs(1)
        target = Config.from_text("0A")

        def delta(c):
            return LaurentPoly.one() if c == target else LaurentPoly.zero()

        for c in configs:
            got = apply_generator(delta, c, P1, Ring.EXACT)
            entry = H.get(target.ternary_index() - 1, c.ternary_index() - 1)
            assert got == -(entry if entry is not None else LaurentPoly.zero())


class TestDump:
    def test_format(self):
        fh = io.StringIO()
        dump_matrix(h_exact(1), fh, P1)
        lines = fh.getvalue().splitlines()
        assert lines[0] == "9 full 1 - - 2 1/2"
        assert len(lines) == 13
        # column-compressed deterministic order
        keys = [tuple(map(int, line.split()[:2])) for line in lines[1:]]
        assert keys == sorted(keys, key=lambda rc: (rc[1], rc[0]))

    def test_sector_header(self):
        fh = io.StringIO()
        sector = Sector(2, 1, 1)
        dump_matrix(build_H_sector(P2, sector, Ring.FLOAT), fh, P2, sector)
        assert fh.getvalue().splitlines()[0] == "12 sector 2 1 1 2 1/2"
