"""The term kernel behind sparse +, -, @ and commutators.

Each operation is checked against an entrywise reference built from plain
LaurentPoly arithmetic, on small random matrices with multi-term entries
and on pairs built so that whole entries or single coefficients cancel.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep2.generator import h_exact
from asep2.qring import Q, LaurentPoly
from asep2.qsym import check_symmetry, symmetry_operators
from asep2.sparse import SparseMatrix, commutator, matrix_sum, product_difference

DIM = 3
KERNEL_EXAMPLES = settings(max_examples=60, deadline=None)

polys = st.dictionaries(
    st.integers(-3, 3), st.integers(-2, 2).filter(bool), min_size=1, max_size=3
).map(LaurentPoly)
matrices = st.dictionaries(
    st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)), polys, max_size=6
).map(lambda entries: SparseMatrix(DIM, entries))


def _clean(entries) -> dict:
    return {k: v for k, v in entries.items() if v}


def ref_sum(a: SparseMatrix, b: SparseMatrix, sign: int) -> dict:
    zero = LaurentPoly.zero()
    return _clean(
        {
            k: a.entries.get(k, zero) + sign * b.entries.get(k, zero)
            for k in set(a.entries) | set(b.entries)
        }
    )


def ref_product(a: SparseMatrix, b: SparseMatrix) -> dict:
    out = {}
    for (r, k), va in a.entries.items():
        for (kk, c), vb in b.entries.items():
            if k == kk:
                out[(r, c)] = out.get((r, c), LaurentPoly.zero()) + va * vb
    return _clean(out)


def ref_commutator(a: SparseMatrix, b: SparseMatrix) -> dict:
    ab = SparseMatrix(a.dim, ref_product(a, b))
    return ref_sum(ab, SparseMatrix(a.dim, ref_product(b, a)), -1)


def assert_clean(m: SparseMatrix) -> None:
    """No stored entry is zero and no entry holds a zero or non-int coefficient."""
    for v in m.entries.values():
        assert isinstance(v, LaurentPoly) and v
        assert all(type(x) is int and x for x in v.terms.values())


@KERNEL_EXAMPLES
@given(matrices, matrices)
def test_add_sub(a, b):
    for out, sign in ((a + b, 1), (a - b, -1)):
        assert out.entries == ref_sum(a, b, sign)
        assert_clean(out)


@KERNEL_EXAMPLES
@given(matrices)
def test_cancelling_sums(a):
    assert (a - a).is_zero()
    assert (a + a.scale(LaurentPoly.const(-1))).is_zero()
    assert matrix_sum(DIM, [a, a, a.scale(LaurentPoly.const(-2))]).is_zero()


@KERNEL_EXAMPLES
@given(matrices, matrices)
def test_matmul(a, b):
    out = a @ b
    assert out.entries == ref_product(a, b)
    assert_clean(out)


@KERNEL_EXAMPLES
@given(matrices, matrices, polys)
def test_commutator(a, b, p):
    out = commutator(a, b)
    assert out.entries == ref_commutator(a, b)
    assert_clean(out)
    # pairs that commute: every product term cancels
    assert commutator(a, a @ a).is_zero()
    assert commutator(a, a.scale(p)).is_zero()


@KERNEL_EXAMPLES
@given(matrices, matrices, matrices, matrices)
def test_product_difference(a, b, c, d):
    out = product_difference(a, b, c, d)
    ab, cd = SparseMatrix(DIM, ref_product(a, b)), SparseMatrix(DIM, ref_product(c, d))
    assert out.entries == ref_sum(ab, cd, -1)
    assert_clean(out)
    assert product_difference(a, b, a, b).is_zero()


def test_partial_cancellation_drops_coefficients():
    # (1 + q)(1 - q) = 1 - q^2: the q^1 terms cancel inside one entry
    one_plus_q = LaurentPoly({0: 1, 2: 1})
    one_minus_q = LaurentPoly({0: 1, 2: -1})
    out = SparseMatrix(1, {(0, 0): one_plus_q}) @ SparseMatrix(1, {(0, 0): one_minus_q})
    assert out.get(0, 0).terms == {0: 1, 4: -1}


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        SparseMatrix(2) @ SparseMatrix(3)
    with pytest.raises(ValueError):
        commutator(SparseMatrix(2), SparseMatrix(3))
    with pytest.raises(ValueError):
        matrix_sum(2, [SparseMatrix(3)])


def test_wrong_generator_entry_fails_symmetry():
    # negative control: one off-diagonal rate times q breaks a ladder
    # commutator, and the report names its first nonzero entry
    H = h_exact(1)
    key = min(k for k in H.entries if k[0] != k[1])
    bad = SparseMatrix(H.dim, {**H.entries, key: H.entries[key] * Q})
    report = check_symmetry(bad, 1)
    failed = {r.name: r.detail for r in report.results if not r.passed}
    assert failed and all(name.startswith("L1:commutator-H-Y") for name in failed)
    for name, op in symmetry_operators(1):
        residual = SparseMatrix(H.dim, ref_commutator(bad, op))
        if residual.is_zero():
            continue
        (r, c), v = residual.first_entry()
        assert failed.pop(f"L1:commutator-H-{name}") == f"{r} {c} {v}"
    assert not failed
