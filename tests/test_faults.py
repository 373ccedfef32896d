"""Seeded faults in the operators behind the algebra, conjugation,
duality, sum-rule, uniqueness, partition-function, grandcanonical and
shock-profile checks, and the FAIL lines each one makes those checks
print.

Each fault monkeypatches one production constant or function.  The
pinned lines are those the checks print with every relation formed on
its own; the checks that form a family of relations on direct sums must
print the same, so a failing block is neither hidden nor blamed on its
neighbour.  Each fault's checks run once before it, so every cached
table is warm when the fault applies, and the `lru_cache`s are cleared
around each fault, so no operator or table built before or under it
leaks across.

Two relation families are structural and have no row: `serre-quadratic`
is [Y, Y] for one ladder Y, and `cartan-commute-*` commutes two diagonal
matrices.  Both are zero for any operators, so no operator fault can
fail them.
"""

from fractions import Fraction

import numpy as np
import pytest

from asep2 import cli, duality, measures, qsym
from asep2.duality import check_duality, check_sum_rules
from asep2.generator import ModelParams, Ring
from asep2.lattice import A, VACANT, left_counts, occupations, sector_occupations
from asep2.measures import check_uniqueness
from asep2.qring import Q, q_factorial, q_number
from asep2.qsym import (
    A_MINUS,
    C_MINUS,
    C_PLUS,
    check_algebra_relations,
    check_conjugation_lemma,
)
from asep2.reporting import Report
from asep2.sparse import SparseMatrix

from helpers import clear_caches

_real_site_embed = qsym.site_embed


def _wrong_serre_coefficient(monkeypatch):
    # [2] replaced by q [2]; the per-eigenvalue q-integers read it too
    monkeypatch.setattr(qsym, "q_number", lambda n: q_number(n) * Q if n == 2 else q_number(n))


def _flipped_dressing(monkeypatch):
    # Y1- dressed by q**(+(left - right)) instead of q**(-(left - right))
    monkeypatch.setitem(qsym._Y_RECIPE, (1, -1), (A_MINUS, A, +1))


def _raising_exchanges(monkeypatch):
    # Y1+ turns a B into an A instead of filling a vacancy
    monkeypatch.setitem(qsym._Y_RECIPE, (1, +1), (C_PLUS, VACANT, +1))


def _lowering_exchanges(monkeypatch):
    # Y1- turns an A into a B, so it keeps a saturated sector saturated
    monkeypatch.setitem(qsym._Y_RECIPE, (1, -1), (C_MINUS, A, -1))


def _projector_leaks(monkeypatch):
    # the A projector also keeps vacancies
    monkeypatch.setattr(qsym, "PROJ_A", ((1, 0, 0), (0, 1, 0), (0, 0, 0)))


def _a_plus_exchanges(monkeypatch):
    # the a+ ladder turns a B into an A: it fills no vacancy and empties a B
    monkeypatch.setattr(qsym, "A_PLUS", C_PLUS)


def _a_plus_lowers(monkeypatch):
    # the a+ ladder removes an A instead of adding one
    monkeypatch.setattr(qsym, "A_PLUS", A_MINUS)


def _embedding_dressed(monkeypatch):
    # an undressed embedding picks up q**(number of A left of the site)
    def dressed(u, k, L, dressing=None):
        if dressing is None:
            dressing = 2 * left_counts(occupations(L), A)[:, k + L - 1]
        return _real_site_embed(u, k, L, dressing)

    monkeypatch.setattr(qsym, "site_embed", dressed)


def _skewed_weight(monkeypatch):
    # the reversible weight times q**N: H conserves N, so D H = H^T D and
    # each sum-rule side survive, and only the sides' agreement breaks
    real = measures.pi_exponents
    monkeypatch.setattr(measures, "pi_exponents", lambda rows: real(rows) + (rows == A).sum(1))


def _weight_off_at_first_site(monkeypatch):
    # the reversible weight one q-power off where site -L+1 holds an A:
    # detailed balance breaks on every bond move of that A
    real = measures.pi_exponents
    monkeypatch.setattr(measures, "pi_exponents", lambda rows: real(rows) + (rows[:, 0] == A))


def _first_bond_dropped(monkeypatch):
    # the exchange on the bond of sites -L+1 and -L+2 dropped from the
    # exact sector generators, exit rates too, so column sums and detailed
    # balance hold: site -L+1 never changes, and a sector whose first
    # site can hold two states splits
    real = measures.build_H_sector

    def dropped(p, sector, ring=Ring.EXACT):
        H = real(p, sector, ring)
        rows = sector_occupations(sector)
        moves = (H.row != H.col) & (rows[H.row, 0] != rows[H.col, 0])
        r, c, h, x = H.row[moves], H.col[moves], H.h[moves], H.coeff[moves]
        # each move's term and its share of the source's exit rate, undone
        undo = SparseMatrix.from_arrays(
            H.dim, np.append(r, c), np.append(c, c), np.append(h, h), np.append(-x, x)
        )
        return H + undo

    monkeypatch.setattr(measures, "build_H_sector", dropped)


def _q_exponent_off(monkeypatch):
    # Q_z one q-power off where z holds an A at site -L+1; the exact
    # duality products do not read q_exponents, so only the brute-force
    # side of rows-S-vs-Qhat moves
    real = duality.q_exponents

    def off(z_rows, eta_rows):
        exponent, keep = real(z_rows, eta_rows)
        return exponent + (np.asarray(z_rows)[:, :1] == A), keep

    monkeypatch.setattr(duality, "q_exponents", off)


def _divided_power_off_by_one(monkeypatch):
    # (Y1-)^n and (Y2+)^n divided by [n-1]! in place of [n]!: each is
    # divisible, so S becomes sum [n]_q [m]_q (Y1-)^(n) (Y2+)^(m), still
    # commutes with H, and only the rows compared with Q_z move
    monkeypatch.setattr(duality, "q_factorial", lambda n: q_factorial(max(n - 1, 0)))


def _q_factorial_two_off(monkeypatch):
    # [2]! times q where the partition check reads it: the trinomials
    # come from the q-Pascal rule and the weight sums from the sector
    # tables, so only the cross-multiplied factorial formula moves
    monkeypatch.setattr(
        measures, "q_factorial", lambda n: q_factorial(n) * Q if n == 2 else q_factorial(n)
    )


ALGEBRA = (check_algebra_relations, (1, 2))
CONJUGATION = (check_conjugation_lemma, (1, 2))
DUALITY = (check_duality, (1, 2))
SUM_RULES = (check_sum_rules, (1, 2))
PARTITION = (measures.check_partition_functions, (1, 2))
UNIQUENESS = (lambda L: check_uniqueness(ModelParams(L, Fraction(2), Fraction(1, 2))), (1, 2))
STATIONARITY = (
    lambda L: measures.check_grandcanonical_stationarity(
        ModelParams(L, Fraction(2), Fraction(1, 2))
    ),
    (1, 2),
)
SHOCK = (measures.check_shock_agreement, (3,))
# every suite of `verify all --L 2`, sizes 1 and 2
VERIFY_ALL = (
    lambda L: cli._suite_reports("all", L, ModelParams(L, Fraction(2), Fraction(1, 2))),
    (2,),
)

# fault -> (the checks and sizes it runs, the FAIL lines they print)
FAULTS = {
    "serre coefficient": (
        _wrong_serre_coefficient,
        [ALGEBRA],
        [
            "L1:cartan-qnumber-consistency-H1 FAIL 0 0 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L1:cartan-qnumber-consistency-H2 FAIL 4 4 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L1:serre-cubic-Y1p-Y2p FAIL 0 5 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L1:serre-cubic-Y1m-Y2m FAIL 5 0 1*q^0 + -1*q^1 + 1*q^2 + -1*q^3",
            "L1:serre-cubic-Y2p-Y1p FAIL 1 8 1*q^0 + -1*q^1 + 1*q^2 + -1*q^3",
            "L1:serre-cubic-Y2m-Y1m FAIL 8 1 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L2:cartan-qnumber-consistency-H1 FAIL 1 1 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L2:cartan-qnumber-consistency-H2 FAIL 4 4 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L2:serre-cubic-Y1p-Y2p FAIL 0 5 1*q^-1 + -1*q^0 + 1*q^1 + -1*q^2",
            "L2:serre-cubic-Y1m-Y2m FAIL 5 0 1*q^4 + -1*q^5 + 1*q^6 + -1*q^7",
            "L2:serre-cubic-Y2p-Y1p FAIL 1 8 1*q^0 + -1*q^1 + 1*q^2 + -1*q^3",
            "L2:serre-cubic-Y2m-Y1m FAIL 8 1 1*q^1 + -1*q^2 + 1*q^3 + -1*q^4",
        ],
    ),
    "flipped Y1- dressing": (
        _flipped_dressing,
        [ALGEBRA],
        [
            "L1:ladder-commutator-Y1p-Y1m FAIL 1 1 -1*q^-1 + 1*q^1",
            "L1:serre-cubic-Y1m-Y2m FAIL 5 0 -1*q^-2 + 1*q^2",
            "L2:ladder-commutator-Y1p-Y1m FAIL 1 1 -1*q^-3 + 1*q^3",
            "L2:serre-cubic-Y1m-Y2m FAIL 5 0 -1*q^-6 + 1*q^-2",
        ],
    ),
    "Y1+ exchanges": (
        _raising_exchanges,
        [ALGEBRA],
        [
            "L1:cartan-ladder-exchange-L2-Y1p FAIL 0 2 1*q^0 + -1*q^1/2",
            "L1:cartan-ladder-exchange-L3-Y1p FAIL 0 2 -1*q^-1/2 + 1*q^0",
            "L1:ladder-commutator-Y1p-Y1m FAIL 0 0 -1*q^-1 + -1*q^1",
            "L1:ladder-commutator-Y1p-Y2m FAIL 0 1 1*q^0",
            "L2:cartan-ladder-exchange-L2-Y1p FAIL 0 2 1*q^0 + -1*q^1/2",
            "L2:cartan-ladder-exchange-L3-Y1p FAIL 0 2 -1*q^-1/2 + 1*q^0",
            "L2:ladder-commutator-Y1p-Y1m FAIL 0 0 -1*q^-3 + -1*q^-1 + -1*q^1 + -1*q^3",
            "L2:ladder-commutator-Y1p-Y2m FAIL 0 1 1*q^0",
            "L2:serre-cubic-Y1p-Y2p FAIL 1 26 -2*q^-1 + 4*q^0 + -2*q^1",
            "L2:serre-cubic-Y2p-Y1p FAIL 4 26 -1*q^-2 + 2*q^-1 + -2*q^0 + 2*q^1 + -1*q^2",
        ],
    ),
    "Y1- exchanges": (
        _lowering_exchanges,
        [ALGEBRA, DUALITY],
        [
            "L1:cartan-ladder-exchange-L2-Y1m FAIL 2 0 -1*q^1/2 + 1*q^1",
            "L1:cartan-ladder-exchange-L3-Y1m FAIL 2 0 1*q^1/2 + -1*q^1",
            "L1:ladder-commutator-Y1p-Y1m FAIL 0 0 -1*q^-1 + -1*q^1",
            "L1:ladder-commutator-Y2p-Y1m FAIL 1 0 1*q^1",
            "L2:cartan-ladder-exchange-L2-Y1m FAIL 2 0 -1*q^5/2 + 1*q^3",
            "L2:cartan-ladder-exchange-L3-Y1m FAIL 2 0 1*q^5/2 + -1*q^3",
            "L2:ladder-commutator-Y1p-Y1m FAIL 0 0 -1*q^-3 + -1*q^-1 + -1*q^1 + -1*q^3",
            "L2:ladder-commutator-Y2p-Y1m FAIL 1 0 1*q^3",
            "L2:serre-cubic-Y1m-Y2m FAIL 26 1 -1*q^0 + 2*q^1 + -2*q^2 + 2*q^3 + -1*q^4",
            "L2:serre-cubic-Y2m-Y1m FAIL 26 4 -1*q^-1 + 2*q^0 + -2*q^1 + 2*q^2 + -1*q^3",
            "L1:closed-form-vs-symmetry FAIL 1 0 1*q^0",
            "L1:commutator-S-H FAIL 5 1 -1*q^-1 + 1*q^1",
            "L1:commutator-Y1m-Y2p FAIL 1 0 -1*q^1",
            "L1:S-vacuum-row FAIL 0",
            "L1:rows-S-vs-Qhat FAIL 1 0 -1*q^1",
            "L1:saturated-sector-annihilation FAIL (0, 'Y1-')",
            "L1:divided-power-cutoff FAIL (1, 0, 2)",
            "L2:closed-form-vs-symmetry FAIL 1 0 1*q^0",
            "L2:commutator-S-H FAIL 5 1 -1*q^1 + 1*q^3",
            "L2:commutator-Y1m-Y2p FAIL 1 0 -1*q^3",
            "L2:S-vacuum-row FAIL 0",
            "L2:rows-S-vs-Qhat FAIL 1 0 -1*q^3",
            "L2:saturated-sector-annihilation FAIL (0, 'Y1-')",
            "L2:divided-power-cutoff FAIL (1, 0, 2)",
        ],
    ),
    "A projector keeps vacancies": (
        _projector_leaks,
        [CONJUGATION],
        [
            "L1:projector-eigenvalue FAIL (0, '0A')",
            "L2:projector-eigenvalue FAIL (-1, '0AAA')",
        ],
    ),
    "a+ exchanges": (
        _a_plus_exchanges,
        [CONJUGATION],
        [
            "L1:conjugation-single-cross-ap FAIL (0, 0)",
            "L1:conjugation-product-ap FAIL (0, 1, 1)",
            "L2:conjugation-single-cross-ap FAIL (-1, -1)",
            "L2:conjugation-product-ap FAIL (-1, 0, 0)",
        ],
    ),
    "a+ lowers": (
        _a_plus_lowers,
        [CONJUGATION],
        [
            "L1:conjugation-single-ap FAIL (0, 0)",
            "L1:conjugation-product-ap FAIL (0, 1, 0)",
            "L2:conjugation-single-ap FAIL (-1, -1)",
            "L2:conjugation-product-ap FAIL (-1, 0, -1)",
        ],
    ),
    "dressed embedding": (
        _embedding_dressed,
        [CONJUGATION],
        [
            "L1:projector-eigenvalue FAIL (1, 'AA')",
            "L1:embed-commute FAIL ('a+', 0, 'a+', 1)",
            "L2:projector-eigenvalue FAIL (0, 'AAAA')",
            "L2:embed-commute FAIL ('a+', -1, 'a+', 0)",
        ],
    ),
    "skewed reversible weight": (
        _skewed_weight,
        [DUALITY, SUM_RULES],
        [
            "L1:sum-rule-constancy FAIL sides disagree: source (1, 0), target (0, 0), "
            "residual -1*q^-1 + 1*q^0 + -1*q^1 + 1*q^2",
            "L2:sum-rule-constancy FAIL sides disagree: source (1, 0), target (0, 0), "
            "residual -1*q^-3 + 1*q^-2 + -1*q^-1 + 1*q^0 + -1*q^1 + 1*q^2 + -1*q^3 + 1*q^4",
        ],
    ),
    "reversible weight off at the first site": (
        _weight_off_at_first_site,
        [UNIQUENESS],
        [
            "L1:kernel-matches-canonical-N1-M0 FAIL detailed balance 1 0 -1*q^0 + 1*q^1",
            "L1:kernel-matches-canonical-N1-M1 FAIL detailed balance 1 0 -1*q^0 + 1*q^1",
            "L2:kernel-matches-canonical-N1-M0 FAIL detailed balance 3 2 -1*q^-2 + 1*q^-1",
            "L2:kernel-matches-canonical-N1-M1 FAIL detailed balance 6 5 -1*q^0 + 1*q^1",
            "L2:kernel-matches-canonical-N1-M2 FAIL detailed balance 5 4 -1*q^0 + 1*q^1",
            "L2:kernel-matches-canonical-N1-M3 FAIL detailed balance 3 2 -1*q^-2 + 1*q^-1",
            "L2:kernel-matches-canonical-N2-M0 FAIL detailed balance 2 1 -1*q^1 + 1*q^2",
            "L2:kernel-matches-canonical-N2-M1 FAIL detailed balance 3 2 -1*q^2 + 1*q^3",
            "L2:kernel-matches-canonical-N2-M2 FAIL detailed balance 2 1 -1*q^1 + 1*q^2",
            "L2:kernel-matches-canonical-N3-M0 FAIL detailed balance 1 0 -1*q^2 + 1*q^3",
            "L2:kernel-matches-canonical-N3-M1 FAIL detailed balance 1 0 -1*q^2 + 1*q^3",
        ],
    ),
    # the grandcanonical weights and the shock densities read the weight
    # through the q0-power tables cached per (L, q0) and per (sector, q0)
    "reversible weight off at the first site, float measures": (
        _weight_off_at_first_site,
        [STATIONARITY, SHOCK],
        [
            "L1:grandcanonical-stationary-nu-1-mu-1 FAIL residual 0.106681",
            "L1:grandcanonical-stationary-nu-1-mu0 FAIL residual 0.0568177",
            "L1:grandcanonical-stationary-nu-1-mu1 FAIL residual 0.0533624",
            "L1:grandcanonical-stationary-nu0-mu-1 FAIL residual 0.154447",
            "L1:grandcanonical-stationary-nu0-mu0 FAIL residual 0.0952381",
            "L1:grandcanonical-stationary-nu0-mu1 FAIL residual 0.106681",
            "L1:grandcanonical-stationary-nu1-mu-1 FAIL residual 0.145054",
            "L1:grandcanonical-stationary-nu1-mu0 FAIL residual 0.106681",
            "L1:grandcanonical-stationary-nu1-mu1 FAIL residual 0.154447",
            "L2:grandcanonical-stationary-nu-1-mu-1 FAIL residual 0.00906684",
            "L2:grandcanonical-stationary-nu-1-mu0 FAIL residual 0.0049625",
            "L2:grandcanonical-stationary-nu-1-mu1 FAIL residual 0.00339606",
            "L2:grandcanonical-stationary-nu0-mu-1 FAIL residual 0.0366682",
            "L2:grandcanonical-stationary-nu0-mu0 FAIL residual 0.0132877",
            "L2:grandcanonical-stationary-nu0-mu1 FAIL residual 0.00906684",
            "L2:grandcanonical-stationary-nu1-mu-1 FAIL residual 0.100375",
            "L2:grandcanonical-stationary-nu1-mu0 FAIL residual 0.0492925",
            "L2:grandcanonical-stationary-nu1-mu1 FAIL residual 0.0366682",
            "L3:shock-profile-A-q2-nu-1 FAIL max deviation 0.0113656",
            "L3:shock-profile-A-q2-nu0 FAIL max deviation 0.030303",
            "L3:shock-profile-A-q2-nu1 FAIL max deviation 0.0782954",
            "L3:shock-profile-A-q1.2-nu-1 FAIL max deviation 0.0257601",
            "L3:shock-profile-A-q1.2-nu0 FAIL max deviation 0.0573342",
            "L3:shock-profile-A-q1.2-nu1 FAIL max deviation 0.104417",
        ],
    ),
    "first bond dropped": (
        _first_bond_dropped,
        [UNIQUENESS],
        [
            "L1:kernel-dimension-N0-M1 FAIL 0B does not communicate with B0",
            "L1:kernel-dimension-N1-M0 FAIL A0 does not communicate with 0A",
            "L1:kernel-dimension-N1-M1 FAIL AB does not communicate with BA",
            "L2:kernel-dimension-N0-M1 FAIL 0B00 does not communicate with B000",
            "L2:kernel-dimension-N0-M2 FAIL 0BB0 does not communicate with BB00",
            "L2:kernel-dimension-N0-M3 FAIL 0BBB does not communicate with BBB0",
            "L2:kernel-dimension-N1-M0 FAIL A000 does not communicate with 000A",
            "L2:kernel-dimension-N1-M1 FAIL 0B0A does not communicate with B00A",
            "L2:kernel-dimension-N1-M2 FAIL 0BBA does not communicate with BB0A",
            "L2:kernel-dimension-N1-M3 FAIL ABBB does not communicate with BBBA",
            "L2:kernel-dimension-N2-M0 FAIL A00A does not communicate with 00AA",
            "L2:kernel-dimension-N2-M1 FAIL 0BAA does not communicate with B0AA",
            "L2:kernel-dimension-N2-M2 FAIL ABBA does not communicate with BBAA",
            "L2:kernel-dimension-N3-M0 FAIL A0AA does not communicate with 0AAA",
            "L2:kernel-dimension-N3-M1 FAIL ABAA does not communicate with BAAA",
        ],
    ),
    "divided powers off by one q-factorial": (
        _divided_power_off_by_one,
        [VERIFY_ALL],
        [
            "L1:closed-form-vs-symmetry FAIL 4 0 -1*q^-1 + 1*q^0 + -1*q^1",
            "L1:S-vacuum-row FAIL 0",
            "L1:rows-S-vs-Qhat FAIL 4 0 1*q^-1 + -1*q^0 + 1*q^1",
            "L2:closed-form-vs-symmetry FAIL 4 0 -1*q^-1 + 1*q^0 + -1*q^1",
            "L2:S-vacuum-row FAIL 0",
            "L2:rows-S-vs-Qhat FAIL 4 0 1*q^3 + -1*q^4 + 1*q^5",
        ],
    ),
    "q-factorial [2]! times q": (
        _q_factorial_two_off,
        [PARTITION],
        [
            "L1:partition-factorization FAIL (0, 1)",
            "L2:partition-factorization FAIL (0, 2)",
        ],
    ),
    "Q exponent off at the first site": (
        _q_exponent_off,
        [DUALITY, SUM_RULES],
        [
            "L1:rows-S-vs-Qhat FAIL 0 0 1*q^0 + -1*q^1",
            "L2:rows-S-vs-Qhat FAIL 0 0 1*q^0 + -1*q^1",
        ],
    ),
}


def fault_report(fault, monkeypatch) -> Report:
    apply, checks, _expected = FAULTS[fault]
    for check, sizes in checks:
        for L in sizes:
            check(L)
    apply(monkeypatch)
    clear_caches()
    try:
        report = Report()
        for check, sizes in checks:
            for L in sizes:
                report.extend(check(L))
    finally:
        monkeypatch.undo()
        clear_caches()
    return report


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_lines_pinned(monkeypatch, fault):
    lines = [line.removeprefix("RELATION ") for line in fault_report(fault, monkeypatch).lines()]
    assert [line for line in lines if " FAIL " in line] == FAULTS[fault][2]
