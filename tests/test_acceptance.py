"""Exit criteria for the toolkit, one test per criterion.

Every criterion runs at its stated size and tolerance and prints one
PASS/FAIL line (visible with `pytest -s` or on failure).  The exact
criteria admit no tolerance at all: they hold identically in the ring of
Laurent polynomials in q**(1/2) or they fail.
"""

from fractions import Fraction

import numpy as np

from asep2.duality import (
    build_S,
    check_sum_rules,
    duality_closed_form,
    duality_from_symmetry,
)
from asep2.dynamics import duality_rhs, estimate_Q_many, evolve
from asep2.generator import ModelParams, Ring, build_H_sector, h_exact
from asep2.lattice import (
    Sector,
    all_configs,
    check_counting_lemmas,
    check_permutation_identities,
    enumerate_sector,
)
from asep2.measures import (
    Measure,
    canonical,
    check_grandcanonical_stationarity,
    check_reversibility,
    check_shock_agreement,
    sector_weight_sum,
)
from asep2.qring import q_multinomial
from asep2.qsym import (
    check_algebra_relations,
    check_conjugation_lemma,
    check_fundamental_matrices,
    check_symmetry,
)
from asep2.cli import default_dual_coordinates, default_initial_config

from helpers import matrix_row, reference_q

P2 = ModelParams(2, Fraction(2), Fraction(1, 2))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"CRITERION {num:02d} {name}: {status}{suffix}")


def test_c01_symmetry_commutators():
    reports = [check_symmetry(h_exact(L), L) for L in (1, 2)]
    ok = all(r.passed for r in reports)
    _report(1, "generator-symmetry-commutators", ok)
    assert ok, "\n".join(r.render() for r in reports)


def test_c02_algebra_relations():
    reports = [check_algebra_relations(L) for L in (1, 2)]
    ok = all(r.passed for r in reports)
    _report(2, "quantum-algebra-relations", ok)
    assert ok, "\n".join(r.render() for r in reports)


def test_c03_reversibility():
    reports = [check_reversibility(h_exact(L), L) for L in (1, 2, 3)]
    ok = all(r.passed for r in reports)
    _report(3, "detailed-balance", ok)
    assert ok, "\n".join(r.render() for r in reports)


def test_c04_partition_normalization():
    ok = True
    for L in (1, 2, 3):
        for n in range(2 * L + 1):
            for m in range(2 * L - n + 1):
                ok &= sector_weight_sum(Sector(L, n, m)) == q_multinomial(2 * L, n, m)
    _report(4, "sector-partition-functions", ok)
    assert ok


def test_c05_duality_matrix():
    ok = True
    for L in (1, 2):
        H = h_exact(L)
        closed = duality_closed_form(L)
        sym = duality_from_symmetry(L)
        ok &= (closed @ H - H.transpose() @ closed).is_zero()
        ok &= closed == sym
    _report(5, "self-duality-intertwining", ok)
    assert ok


def test_c06_symmetry_rows_give_duality_products():
    L = 2
    S = build_S(L)
    configs = all_configs(L)
    ok = True
    for z in configs:
        row = matrix_row(S, z.index)
        expected = {}
        for c in configs:
            if value := reference_q(z, c):
                expected[c.index] = value
        if row != expected:
            ok = False
            break
    _report(6, "operator-rows-vs-products", ok)
    assert ok


def test_c07_sum_rule():
    reports = [check_sum_rules(L) for L in (1, 2)]
    ok = all(r.passed for r in reports)
    _report(7, "sum-rule", ok)
    assert ok, "\n".join(r.render() for r in reports)


def test_c08_combinatorial_lemmas():
    reports = [check_counting_lemmas(L) for L in (1, 2, 3)]
    reports += [check_permutation_identities(L) for L in (1, 2, 3)]
    reports += [check_fundamental_matrices()]
    reports += [check_conjugation_lemma(L) for L in (1, 2)]
    ok = all(r.passed for r in reports)
    _report(8, "counting-and-conjugation-lemmas", ok)
    assert ok, "\n".join(r.render() for r in reports)


def test_c09_grandcanonical_stationarity():
    report = check_grandcanonical_stationarity(P2)
    _report(9, "grandcanonical-stationarity", report.passed)
    assert report.passed, report.render()


def test_c10_shock_profiles():
    report = check_shock_agreement(3)
    _report(10, "shock-profiles", report.passed)
    assert report.passed, report.render()


def test_c11_monte_carlo_duality_closure():
    trajectories = 100_000
    seed = 555
    zs = default_dual_coordinates(2)
    eta0 = default_initial_config(2)
    p0 = Measure.point_mass(eta0)
    inside = 0
    worst = 0.0
    for it, t in enumerate((0.25, 1.0, 4.0)):
        estimates = estimate_Q_many(zs, p0, t, trajectories, seed + it, P2)
        predictions = duality_rhs(zs, p0, t, P2)
        for est, prediction in zip(estimates, predictions):
            score = abs(est.mean - prediction) / est.stderr if est.stderr else 0.0
            worst = max(worst, score)
            inside += score <= 3.0
    ok = inside >= 14
    _report(
        11,
        "monte-carlo-duality-closure",
        ok,
        f"({inside}/15 within 3 stderr, worst {worst:.2f})",
    )
    assert ok


def test_c12_ergodic_limit():
    sector = Sector(2, 1, 1)
    kernel = evolve(build_H_sector(P2, sector, Ring.FLOAT), 1e3)
    mu = canonical(sector)
    probs = np.array([mu.probability(c, P2.q0) for c in enumerate_sector(sector)])
    defect = float(np.max(np.abs(kernel.matrix - probs[:, None])))
    ok = defect < 1e-8
    _report(12, "ergodic-limit", ok, f"(max deviation {defect:.2e})")
    assert ok
