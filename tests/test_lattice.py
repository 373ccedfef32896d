import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asep2 import lattice
from asep2.lattice import (
    A,
    B,
    VACANT,
    CODE_MAX_L,
    Config,
    OverlappingCoordinates,
    Sector,
    SiteOutOfRange,
    all_configs,
    check_counting_lemmas,
    check_permutation_identities,
    config_rows,
    decode,
    encode,
    enumerate_sector,
    left_counts,
    mirror,
    occupations,
    sector_occupations,
    sectors,
    sites,
    theta,
    vacant_config,
    weyl_alcove,
)
from asep2.duality import check_duality
from asep2.generator import h_exact
from asep2.measures import check_reversibility
from asep2.qring import LaurentPoly
from asep2.qsym import build_Y_site, check_symmetry
from asep2.reporting import Report

from helpers import clear_caches, coordinates, count_left, matrix_row, package_modules


def _lowering_row(text: str, k: int) -> dict:
    c = Config.from_text(text)
    row = matrix_row(build_Y_site(1, -1, k, c.L), c.index)
    return {all_configs(c.L)[j].text(): v for j, v in row.items()}


_real_left_counts = lattice.left_counts
_real_theta = lattice.theta


def _off_at_site_one(rows, species):
    # a left count one too high at site 1 (position L of 2L), in every row
    n = np.shape(rows)[1]
    return _real_left_counts(rows, species) + (np.arange(n) == n // 2)


def _off_at_last_site(rows, species):
    # one too high at the last site, in the rows that hold two or more
    n = np.shape(rows)[1]
    many = (np.asarray(rows) == species).sum(axis=1, keepdims=True) >= 2
    return _real_left_counts(rows, species) + (many & (np.arange(n) == n - 1))


# injected faults -> the FAIL lines both lemma checks print at L = 1, 2
# (and 3 for the step function), as computed by the one-case-at-a-time
# loops these checks replaced: the batched checks report the same first
# counterexample
LEMMA_FAULTS = {
    "left count off by one at site 1": (
        "left_counts",
        _off_at_site_one,
        (1, 2),
        [
            "L1:single-left-count FAIL (0, 1, 'A')",
            "L1:left-count-union-additivity-A FAIL ((), (), 1)",
            "L1:left-count-single-additivity-A FAIL ((), 1)",
            "L1:left-count-inversion-A FAIL ((), 1)",
            "L1:left-count-union-additivity-B FAIL ((), (), 1)",
            "L1:left-count-single-additivity-B FAIL ((), 1)",
            "L1:left-count-inversion-B FAIL ((), 1)",
            "L2:single-left-count FAIL (-1, 1, 'A')",
            "L2:left-count-union-additivity-A FAIL ((), (), 1)",
            "L2:left-count-single-additivity-A FAIL ((), 1)",
            "L2:left-count-inversion-A FAIL ((), 1)",
            "L2:left-count-union-additivity-B FAIL ((), (), 1)",
            "L2:left-count-single-additivity-B FAIL ((), 1)",
            "L2:left-count-inversion-B FAIL ((), 1)",
        ],
    ),
    "left count off by one at the last site of a multi-particle set": (
        "left_counts",
        _off_at_last_site,
        (1, 2),
        [
            "L1:left-count-union-additivity-A FAIL ((0,), (1,), 1)",
            "L1:left-count-single-additivity-A FAIL ((0, 1), 1)",
            "L1:left-count-union-complement-A FAIL ((1,), (0,), 1)",
            "L1:left-count-union-additivity-B FAIL ((0,), (1,), 1)",
            "L1:left-count-single-additivity-B FAIL ((0, 1), 1)",
            "L1:left-count-union-complement-B FAIL ((1,), (0,), 1)",
            "L2:left-count-union-additivity-A FAIL ((1,), (2,), 2)",
            "L2:left-count-single-additivity-A FAIL ((1, 2), 2)",
            "L2:left-count-union-complement-A FAIL ((2,), (1,), 2)",
            "L2:left-count-inversion-A FAIL ((0, 1), 2)",
            "L2:left-count-union-additivity-B FAIL ((1,), (2,), 2)",
            "L2:left-count-single-additivity-B FAIL ((1, 2), 2)",
            "L2:left-count-union-complement-B FAIL ((2,), (1,), 2)",
            "L2:left-count-inversion-B FAIL ((0, 1), 2)",
        ],
    ),
    "step function wrong at (1, 0)": (
        "theta",
        lambda k, l: _real_theta(k, l) ^ ((k, l) == (1, 0)),
        (1, 2, 3),
        [
            "L1:theta-complement FAIL (0, 1)",
            "L1:theta-delta-sum FAIL (0, 1, 'right')",
            "L1:single-left-count FAIL (1, 0, 'A')",
            "L1:left-count-union-complement-A FAIL ((), (0,), 1)",
            "L1:left-count-union-complement-B FAIL ((), (0,), 1)",
            "L1:qfactorial-inversion-sum-n2 FAIL ((0, 1), '-1*q^-3 + 1*q^-1')",
            "L2:theta-complement FAIL (0, 1)",
            "L2:theta-delta-sum FAIL (0, 1, 'right')",
            "L2:single-left-count FAIL (1, 0, 'A')",
            "L2:left-count-union-complement-A FAIL ((), (0,), 1)",
            "L2:left-count-union-complement-B FAIL ((), (0,), 1)",
            "L2:qfactorial-inversion-sum-n2 FAIL ((0, 1), '-1*q^-3 + 1*q^-1')",
            "L2:qfactorial-inversion-sum-n3 FAIL ((-1, 0, 1), '-1*q^-5 + 1*q^1')",
            "L2:qfactorial-inversion-sum-n4 FAIL ((-1, 0, 1, 2), "
            "'-1*q^-8 + -1*q^-6 + -1*q^-4 + 1*q^0 + 1*q^2 + 1*q^4')",
            "L3:theta-complement FAIL (0, 1)",
            "L3:theta-delta-sum FAIL (0, 1, 'right')",
            "L3:single-left-count FAIL (1, 0, 'A')",
            "L3:left-count-union-complement-A FAIL ((), (0,), 1)",
            "L3:left-count-union-complement-B FAIL ((), (0,), 1)",
            "L3:qfactorial-inversion-sum-n2 FAIL ((0, 1), '-1*q^-3 + 1*q^-1')",
            "L3:qfactorial-inversion-sum-n3 FAIL ((-2, 0, 1), '-1*q^-5 + 1*q^1')",
            "L3:qfactorial-inversion-sum-n4 FAIL ((-2, -1, 0, 1), "
            "'-1*q^-8 + -1*q^-6 + -1*q^-4 + 1*q^0 + 1*q^2 + 1*q^4')",
        ],
    ),
}


def _lemma_report(Ls) -> Report:
    report = Report()
    for L in Ls:
        report.extend(check_counting_lemmas(L))
        report.extend(check_permutation_identities(L))
    return report


def _failed(report) -> dict[str, str]:
    """Relation name -> FAIL detail, for the failed relations of a report."""
    return {r.name: r.detail for r in report.results if not r.passed}


def configs_strategy(L=2):
    return st.tuples(*([st.sampled_from((A, VACANT, B))] * (2 * L))).map(
        lambda occ: Config(L, occ)
    )


class TestTernaryIndex:
    """`Config.index` encodes, the table `all_configs(L)` decodes."""

    def test_all_a(self):
        assert Config(1, (A, A)).index == 0

    def test_va(self):
        assert Config(1, (VACANT, A)).index == 1

    def test_all_b(self):
        assert Config(1, (B, B)).index == 8

    def test_bijection(self):
        for L in (1, 2, 3):
            table = all_configs(L)
            assert [c.index for c in table] == list(range(3 ** (2 * L)))

    @given(configs_strategy(2) | configs_strategy(3))
    def test_roundtrip(self, c):
        assert all_configs(c.L)[c.index] == c

    def test_table_built_once(self):
        assert all_configs(2) is all_configs(2)


class TestCodec:
    """`encode` and `decode`, the one base-3 codec, and the tables built on it."""

    def test_roundtrip(self):
        for L in (1, 2, 3, 4):
            rows = np.array(list(itertools.product((A, VACANT, B), repeat=2 * L)))
            codes = encode(rows)
            assert np.array_equal(decode(codes, L), rows)
            assert np.array_equal(encode(decode(codes, L)), codes)

    def test_roundtrip_at_code_max_l(self):
        codes = np.array([0, 3 ** (2 * CODE_MAX_L) - 1])
        rows = decode(codes, CODE_MAX_L)
        assert rows.tolist() == [[A] * 38, [B] * 38]
        assert np.array_equal(encode(rows), codes)
        # past CODE_MAX_L a code could overflow int64: the codec refuses
        with pytest.raises(ValueError):
            decode(codes, CODE_MAX_L + 1)
        with pytest.raises(ValueError):
            encode(np.zeros(2 * CODE_MAX_L + 2, dtype=np.int8))

    def test_occupations_match_product_table(self):
        # itertools.product varies its last element fastest; reversed, that
        # is site -L+1, the least significant digit
        for L in (1, 2, 3, 4):
            rows = [occ[::-1] for occ in itertools.product((A, VACANT, B), repeat=2 * L)]
            assert occupations(L).tolist() == [list(occ) for occ in rows]

    def test_sector_table_at_code_max_l(self):
        rows = sector_occupations(Sector(CODE_MAX_L, 2, 1))
        assert rows.shape == (25308, 38)
        assert np.all(np.diff(encode(rows)) > 0)


class TestPositions:
    """The coordinate form of a Config: sorted A sites x, B sites y."""

    def test_ab(self):
        assert Config.from_coordinates(1, x=(0,), y=(1,)) == Config.from_text("AB")

    def test_vacant(self):
        assert Config.from_coordinates(2) == vacant_config(2)

    def test_roundtrip_exhaustive(self):
        for L in (1, 2, 3):
            for c in all_configs(L):
                assert Config.from_coordinates(L, *coordinates(c)) == c

    def test_counts(self):
        for c in all_configs(2):
            x, y = coordinates(c)
            made = Config.from_coordinates(2, x, y)
            assert (made.N, made.M) == (len(x), len(y))

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingCoordinates):
            Config.from_coordinates(2, x=(0,), y=(0,))
        with pytest.raises(OverlappingCoordinates):
            Config.from_coordinates(2, x=(0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(SiteOutOfRange):
            Config.from_coordinates(2, x=(3,))
        with pytest.raises(SiteOutOfRange):
            Config.from_coordinates(2, y=(-2,))

    def test_sorted(self):
        # the order coordinates are given in does not matter
        assert Config.from_coordinates(2, x=(2, -1)) == Config.from_coordinates(2, x=(-1, 2))
        for c in all_configs(2):
            x, y = coordinates(c)
            assert Config.from_coordinates(2, x[::-1], y[::-1]) == c

    def test_occupation_from_positions(self):
        # local occupations are sums of coordinate indicators
        for c in all_configs(2):
            x, y = coordinates(c)
            made = Config.from_coordinates(2, x, y)
            for k in sites(2):
                assert (made.occ[k + c.L - 1] == A) == (k in x)
                assert (made.occ[k + c.L - 1] == B) == (k in y)


class TestTextForm:
    def test_roundtrip(self):
        for text in ("A0B0", "0000", "BBBB", "AB"):
            assert Config.from_text(text).text() == text

    def test_invalid(self):
        with pytest.raises(ValueError):
            Config.from_text("A0X0")
        with pytest.raises(ValueError):
            Config.from_text("A0B")


class TestSectors:
    def test_count_one_one(self):
        assert len(enumerate_sector(Sector(2, 1, 1))) == 12

    def test_empty_sector(self):
        assert enumerate_sector(Sector(1, 0, 0)) == [vacant_config(1)]

    def test_packed(self):
        assert len(enumerate_sector(Sector(2, 4, 0))) == 1

    def test_sizes_match(self):
        for n in range(5):
            for m in range(5 - n):
                sector = Sector(2, n, m)
                assert len(enumerate_sector(sector)) == sector.size

    def test_sorted_by_index(self):
        configs = enumerate_sector(Sector(2, 1, 2))
        indices = [c.index for c in configs]
        assert indices == sorted(indices)

    def test_table_filtered_by_sector(self):
        # the sector basis is the basis table restricted to (N, M), in order
        for L in (1, 2, 3, 4):
            for n in range(2 * L + 1):
                for m in range(2 * L - n + 1):
                    table = [c for c in all_configs(L) if (c.N, c.M) == (n, m)]
                    assert enumerate_sector(Sector(L, n, m)) == table

    def test_partition_of_state_space(self):
        for L in (1, 2, 3):
            total = sum(
                Sector(L, n, m).size
                for n in range(2 * L + 1)
                for m in range(2 * L - n + 1)
            )
            assert total == 3 ** (2 * L)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_sector_list(self, L):
        # every (N, M) the basis holds, once each and in (N, M) order
        assert [(s.N, s.M) for s in sectors(L)] == sorted({(c.N, c.M) for c in all_configs(L)})
        assert sum(s.size for s in sectors(L)) == 3 ** (2 * L)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Sector(1, 2, 1)


class TestMirror:
    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_full_basis(self, L):
        # J reverses the sites and exchanges A and B: an involution of the
        # basis that maps the rows of sector (N, M) onto those of (M, N)
        configs = all_configs(L)
        j = mirror(occupations(L))
        assert np.array_equal(j[j], np.arange(3 ** (2 * L)))
        swap = {"A": "B", "B": "A", "0": "0"}
        for c, image in zip(configs, j.tolist()):
            assert configs[image].text() == "".join(swap[ch] for ch in reversed(c.text()))
            assert (configs[image].N, configs[image].M) == (c.M, c.N)

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_sector_tables(self, L):
        # closed under J exactly when N = M: the permutation of the
        # sector's own rows, else None
        full = mirror(occupations(L))
        for sector in sectors(L):
            table = sector_occupations(sector)
            j = mirror(table)
            if sector.N != sector.M:
                assert j is None
                continue
            codes = encode(table)
            assert np.array_equal(codes[j], full[codes])

    def test_not_closed(self):
        # a table whose mirror image is missing from it
        assert mirror(config_rows([Config.from_text("A0"), Config.from_text("0B")])) is not None
        assert mirror(config_rows([Config.from_text("A0")])) is None


def _left(c: Config, species: int) -> list[int]:
    """`left_counts` of the one row of c, site by site."""
    return left_counts(config_rows([c]), species)[0].tolist()


class TestCounting:
    def test_example(self):
        c = Config.from_coordinates(2, x=(-1, 2))
        assert _left(c, A) == [0, 1, 1, 1]

    def test_left_edge(self):
        c = Config.from_coordinates(2, x=(0, 1), y=(2,))
        assert _left(c, A)[0] == 0
        assert _left(c, B)[0] == 0

    def test_vacancies(self):
        assert _left(Config.from_text("A0B0"), VACANT) == [0, 0, 1, 1]

    def test_invalid(self):
        with pytest.raises(ValueError):
            left_counts(config_rows([vacant_config(2)]), 3)

    def test_single_particle_step(self):
        for x in sites(2):
            assert _left(Config.from_coordinates(2, x=(x,)), A) == [theta(x, r) for r in sites(2)]

    @pytest.mark.parametrize("L", [1, 2, 3, 4])
    def test_matches_reference(self, L):
        # every basis row, for each state, against the loop over one row
        rows = occupations(L)
        for species in (A, VACANT, B):
            expect = [[count_left(occ, k, species) for k in sites(L)] for occ in rows.tolist()]
            assert left_counts(rows, species).tolist() == expect

    # the site-k term of Y1- adds an A at k, dressed by q**(-c) for the
    # centred count c = (A left of k) - (A right of k)
    def test_centered_empty(self):
        assert _lowering_row("0000", 0) == {"0A00": LaurentPoly.one()}

    def test_centered_single(self):
        assert _lowering_row("A000", 0) == {"AA00": LaurentPoly.q_power(-1)}
        assert _lowering_row("00A0", 0) == {"0AA0": LaurentPoly.q_power(1)}


class TestTheta:
    def test_values(self):
        assert theta(0, 1) == 1
        assert theta(1, 1) == 0
        assert theta(2, 1) == 0

    def test_complement_exhaustive(self):
        for L in (1, 2, 3):
            for r in sites(L):
                for x in sites(L):
                    assert theta(r, x) + theta(x, r) + (r == x) == 1


class TestWeylAlcove:
    def test_lexicographic(self):
        tuples = list(weyl_alcove(2, 2))
        assert tuples == sorted(tuples)
        assert all(t[0] < t[1] for t in tuples)
        assert len(tuples) == 6


class TestLemmaChecks:
    def test_counting_small(self):
        assert check_counting_lemmas(1).passed

    def test_counting_desk(self):
        report = check_counting_lemmas(2)
        assert report.passed, report.render()

    def test_permutation_small(self):
        assert check_permutation_identities(1).passed

    def test_permutation_desk(self):
        report = check_permutation_identities(2)
        assert report.passed, report.render()

    def test_l4(self):
        # the checks have no size cap: L = 4 is beyond what verify runs
        report = check_counting_lemmas(4)
        report.extend(check_permutation_identities(4))
        assert report.passed, report.render()

    def test_wrong_left_count_is_seen(self, monkeypatch):
        # negative control: a left count that is wrong at one site fails the
        # lemma suite and the reversibility, symmetry and duality checks,
        # whose weights, ladders and duality values call it too
        for module in package_modules():
            if getattr(module, "left_counts", None) is _real_left_counts:
                monkeypatch.setattr(module, "left_counts", _off_at_site_one)
        clear_caches()
        try:
            report = check_counting_lemmas(1)
            report.extend(check_reversibility(h_exact(1), 1))
            report.extend(check_symmetry(h_exact(1), 1))
            report.extend(check_duality(1))
        finally:
            monkeypatch.undo()
            clear_caches()
        failed = {line.split()[1] for line in report.lines() if " FAIL " in line}
        assert "L1:left-count-union-additivity-A" in failed
        assert {"L1:detailed-balance", "L1:DH=HtD", "L1:commutator-H-Y1-"} <= failed

    @pytest.mark.parametrize("fault", sorted(LEMMA_FAULTS))
    def test_first_counterexample_pinned(self, monkeypatch, fault):
        name, wrong, Ls, expected = LEMMA_FAULTS[fault]
        monkeypatch.setattr(lattice, name, wrong)
        lines = [line.removeprefix("RELATION ") for line in _lemma_report(Ls).lines()]
        assert [line for line in lines if " FAIL " in line] == expected

    def test_wrong_q_factorial_is_seen(self, monkeypatch):
        # negative control: a q-factorial off by a constant fails the
        # inversion-sum identity at every tuple length
        real = lattice.q_factorial
        monkeypatch.setattr(lattice, "q_factorial", lambda n: real(n) + 1)
        failed = _failed(check_permutation_identities(2))
        for n in range(1, 5):
            # the first alcove tuple, with the residual -1
            first = tuple(range(-1, n - 1))
            assert failed[f"L2:qfactorial-inversion-sum-n{n}"] == f"({first}, '-1*q^0')"
        assert not any("diagonal" in name for name in failed)

    def test_summand_not_vanishing_on_diagonals_is_seen(self, monkeypatch):
        # negative control: the weighted gap plus a constant monomial is
        # nonzero on tuples with a repeated site, so folding the full sum
        # onto the alcove loses terms from n = 2 on
        real = lattice._weighted_gap

        def shifted(r):
            lo, rows = real(r)
            rows[:, 0] += 1
            return lo, rows

        monkeypatch.setattr(lattice, "_weighted_gap", shifted)
        failed = _failed(check_permutation_identities(2))
        # the residual counts the 4^n - 4!/(4-n)! tuples with a repeated
        # site, at the lowest exponent -n(n+1)/2
        assert failed == {
            "L2:diagonal-vanishing-symmetrization-n2": "('gap', '4*q^-3')",
            "L2:diagonal-vanishing-symmetrization-n3": "('gap', '40*q^-6')",
            "L2:diagonal-vanishing-symmetrization-n4": "('gap', '232*q^-10')",
        }

    def test_size_guard(self, monkeypatch):
        # L = 60 has (2L)^4 = 2.1e8 tuples whose sums could pass int64: the
        # guard raises before any array is made (numpy is not even reached)
        monkeypatch.setattr(lattice, "np", None)
        with pytest.raises(OverflowError):
            check_permutation_identities(60)
