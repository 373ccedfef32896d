import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asep2 import dynamics
from asep2.fold import PANEL_MIN_DIM
from asep2.generator import (
    BOND_SIGN,
    ModelParams,
    Ring,
    build_H,
    build_H_sector,
    dump_matrix,
    h_exact,
    rate_by_sign,
)
from asep2.lattice import (
    A,
    B,
    VACANT,
    Config,
    Sector,
    all_configs,
    mirror,
    occupations,
    sector_occupations,
    sectors,
)
from asep2.qring import LaurentPoly
from asep2.qsym import species_counts
from asep2.sparse import SparseMatrix, commutator

from helpers import (
    LEFT_PAIRS,
    RIGHT_PAIRS,
    basis,
    dense,
    evaluated,
    pair_rate,
    reference_generator,
    swapped,
)

P1 = ModelParams(1, Fraction(2), Fraction(1, 2))
P2 = ModelParams(2, Fraction(2), Fraction(1, 2))


def _summation_row(dim: int) -> SparseMatrix:
    """The all-ones row vector, as row 0 of a square matrix."""
    return SparseMatrix(dim, {(0, c): LaurentPoly.one() for c in range(dim)})


def _generator_action(H: SparseMatrix, f, configs) -> list:
    """(Lf)(c) = -(H^T f)(c): the generator applied to an observable."""
    out = [f(c) * 0 for c in configs]
    for (r, c), v in H.sorted_items():
        out[c] = out[c] - v * f(configs[r])
    return out


def _bond_sum(f, c: Config, p, ring):
    """sum over the bonds of c of rate * (f(swapped) - f(c)), read off the rule."""
    total = f(c) * 0
    for i in range(2 * c.L - 1):
        rate = pair_rate(p, ring, c.occ[i], c.occ[i + 1])
        if rate:
            total = total + rate * (f(Config(c.L, swapped(c.occ, i))) - f(c))
    return total


class TestModelParams:
    def test_derived(self):
        assert P2.q0 == pytest.approx(2.0)

    def test_from_qw(self):
        p = ModelParams.from_qw(2, 2)
        assert (p.r, p.ell) == (Fraction(2), Fraction(1, 2))

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(1, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            ModelParams(0, Fraction(1), Fraction(1))


class TestLocalRate:
    H_FLOAT, FLOAT = rate_by_sign(P1, Ring.FLOAT)
    H_EXACT, EXACT = rate_by_sign(P1, Ring.EXACT)

    def test_right_moves(self):
        for s1, s2 in ((A, VACANT), (VACANT, B), (A, B)):
            assert BOND_SIGN[s1, s2] == 1
            assert self.FLOAT[BOND_SIGN[s1, s2]] == 2.0

    def test_left_moves(self):
        for s1, s2 in ((B, A), (VACANT, A), (B, VACANT)):
            assert BOND_SIGN[s1, s2] == -1
            assert self.FLOAT[BOND_SIGN[s1, s2]] == 0.5

    def test_frozen_pairs(self):
        for s in (A, B, VACANT):
            assert BOND_SIGN[s, s] == 0
            assert self.FLOAT[0] == 0.0 and self.EXACT[0] == 0

    def test_scaled_symbol(self):
        # q**(h/2) with coefficient 1: q at sign +1, 1/q at sign -1
        for sign, power in ((1, 1), (-1, -1)):
            monomial = {int(self.H_EXACT[sign]): int(self.EXACT[sign])}
            assert LaurentPoly(monomial) == LaurentPoly.q_power(power)
        assert not self.H_FLOAT.any()

    def test_table_is_the_rule(self):
        # the array against the six pairs spelled out in tests/helpers.py
        for s1 in (A, VACANT, B):
            for s2 in (A, VACANT, B):
                want = 1 if (s1, s2) in RIGHT_PAIRS else -1 if (s1, s2) in LEFT_PAIRS else 0
                assert BOND_SIGN[s1, s2] == want
        with pytest.raises(ValueError):
            BOND_SIGN[A, B] = 0


class TestBuildH:
    def test_l1_entry_count(self):
        # 3 exchange pairs on the single bond: 6 off-diagonal + 6 diagonal
        assert h_exact(1).nnz == 12
        assert build_H(P1, Ring.FLOAT).nnz == 12

    def test_specific_entry(self):
        H = build_H(P1, Ring.FLOAT)
        src = Config.from_text("A0").index
        tgt = Config.from_text("0A").index
        assert H.get(tgt, src) == -2.0
        He = h_exact(1)
        assert He.get(tgt, src) == -LaurentPoly.q_power(1)

    def test_column_sums_vanish(self):
        # the dyadic rates 2 and 1/2 keep the float sums exact; the exact
        # ring is checked by the summation-vector test below
        H = dense(build_H(P2, Ring.FLOAT))
        assert not np.any(np.ones(H.shape[0]) @ H)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_summation_vector_annihilates_exactly(self, L):
        H = h_exact(L)
        assert (_summation_row(H.dim) @ H).is_zero()

    def test_sign_structure(self):
        H = build_H(P2, Ring.FLOAT)
        for (r, c), v in H.sorted_items():
            assert v > 0 if r == c else v < 0

    def test_symmetric_at_q_one(self):
        p = ModelParams(2, Fraction(1), Fraction(1))
        H = build_H(p, Ring.FLOAT)
        assert H == H.transpose()
        He = evaluated(h_exact(2), 1.0)
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
        # every sector block, and the full matrix, equal the swap loop of
        # tests/helpers.py on the sector's and the full basis; that loop
        # conserves (N, M), so H has nothing outside the blocks
        def items(op):
            return op.dim, list(op.sorted_items())

        for r, ell in ((Fraction(2), Fraction(1, 2)), (Fraction(7, 10), Fraction(3, 10))):
            for L in (1, 2, 3):
                p = ModelParams(L, r, ell)
                for ring in Ring:
                    full = reference_generator(p, ring, basis(L))
                    assert items(build_H(p, ring)) == items(full)
                    for n in range(2 * L + 1):
                        for m in range(2 * L - n + 1):
                            block = build_H_sector(p, Sector(L, n, m), ring)
                            ref = reference_generator(p, ring, basis(L, (n, m)))
                            assert items(block) == items(ref), (r, ell, L, ring, n, m)


# rates p/q with p, q <= 99
RATES = st.builds(Fraction, st.integers(1, 99), st.integers(1, 99))


def relabelled(op: SparseMatrix, j: np.ndarray) -> SparseMatrix:
    """J H J: the matrix with rows and columns relabelled by the permutation j."""
    return SparseMatrix.from_arrays(op.dim, j[op.row], j[op.col], op.h, op.coeff)


class TestMirror:
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_exact_sectors_commute(self, L):
        # the mirror maps each right exchange onto a right exchange, so the
        # exact generator equals its relabelling on every N = M sector
        for sector in sectors(L):
            j = mirror(sector_occupations(sector))
            if sector.N != sector.M:
                assert j is None
                continue
            op = build_H_sector(ModelParams(L, 2, Fraction(1, 2)), sector, Ring.EXACT)
            assert relabelled(op, j) == op

    @pytest.mark.parametrize("L", [1, 2])
    def test_exact_full_basis_commutes(self, L):
        op = build_H(ModelParams(L, 2, Fraction(1, 2)), Ring.EXACT)
        j = mirror(occupations(L))
        assert relabelled(op, j) == op
        # a relabelling by the wrong permutation does not
        assert relabelled(op, np.roll(j, 1)) != op

    @settings(max_examples=50, deadline=None)
    @given(r=RATES, ell=RATES)
    @example(r=Fraction(7, 10), ell=Fraction(3, 10))
    def test_float_generators_commute_at_any_rates(self, r, ell):
        # each exit rate is n_right r + n_left l from counts the mirror
        # keeps, so every float generator equals its relabelling bit for
        # bit, whatever its sums round to, and the sectors of at least
        # PANEL_MIN_DIM states find pairs to fold over
        ops = [build_H(ModelParams(L, r, ell), Ring.FLOAT) for L in (1, 2)]
        for L in (1, 2, 3, 4):
            p = ModelParams(L, r, ell)
            ops += [build_H_sector(p, Sector(L, n, n), Ring.FLOAT) for n in range(L + 1)]
        for op in ops:
            assert relabelled(op, op.mirror) == op
            assert op.dim < PANEL_MIN_DIM or len(dynamics._orbits(op)[1])

    @pytest.mark.parametrize("L", [1, 2])
    def test_attached_to_float_only(self, L):
        # a float matrix carries its table's mirror, None where the table is
        # not closed under it; an exact matrix carries None
        p = ModelParams(L, 2, Fraction(1, 2))
        tables = [(build_H, p, occupations(L))]
        tables += [(build_H_sector, (p, s), sector_occupations(s)) for s in sectors(L)]
        for build, args, table in tables:
            args = args if isinstance(args, tuple) else (args,)
            j = mirror(table)
            attached = build(*args, Ring.FLOAT).mirror
            assert build(*args, Ring.EXACT).mirror is None
            assert attached is None if j is None else np.array_equal(attached, j)

    def test_read_only_and_not_inherited(self):
        # only the builder attaches a mirror; derived matrices carry none
        op = build_H(P1, Ring.FLOAT)
        with pytest.raises(ValueError):
            op.mirror[0] = 1
        assert relabelled(op, op.mirror).mirror is None
        # float matrices are never combined: an exact one given a mirror
        # passes it to none of its products, sums or transposes
        exact = build_H(P1, Ring.EXACT)
        terms = (exact.row, exact.col, exact.h, exact.coeff)
        tagged = SparseMatrix.from_arrays(exact.dim, *terms, mirror=op.mirror)
        derived = (tagged.transpose(), tagged @ tagged, tagged + tagged)
        assert all(m.mirror is None for m in derived)


class TestApplyGenerator:
    """The generator applied to an observable, -(H^T f), from build_H."""

    def test_constants_are_harmonic(self):
        configs = all_configs(2)
        H = build_H(P2, Ring.FLOAT)
        assert _generator_action(H, lambda _: 1.0, configs) == [0.0] * len(configs)

    def test_particle_count_conserved(self):
        configs = all_configs(2)
        H = build_H(P2, Ring.FLOAT)
        action = _generator_action(H, lambda e: float(e.N), configs)
        assert action == [0.0] * len(configs)

    def test_matches_matrix_float(self):
        H = build_H(P2, Ring.FLOAT)
        configs = all_configs(2)

        def f(c):
            return float(c.index % 7)

        for c, got in zip(configs, _generator_action(H, f, configs)):
            assert got == pytest.approx(_bond_sum(f, c, P2, Ring.FLOAT))

    def test_matches_matrix_exact(self):
        H = h_exact(2)
        configs = all_configs(2)

        def f(c):
            return LaurentPoly.q_power(c.N - c.M)

        for c, got in zip(configs[:20], _generator_action(H, f, configs)):
            assert got == _bond_sum(f, c, P2, Ring.EXACT)

    def test_delta_function_reads_entry(self):
        H = h_exact(1)
        configs = all_configs(1)
        target = Config.from_text("0A")

        def delta(c):
            return LaurentPoly.one() if c == target else LaurentPoly.zero()

        for c in configs:
            entry = H.get(target.index, c.index)
            assert _bond_sum(delta, c, P1, Ring.EXACT) == -(entry or LaurentPoly.zero())


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
