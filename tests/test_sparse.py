"""The term kernel behind sparse +, -, @ and commutators.

Each operation is checked against an entrywise reference built from plain
LaurentPoly arithmetic, on small random matrices with multi-term entries
and on pairs built so that whole entries or single coefficients cancel.
Entries are read back with `sorted_items` and `get`, which build each
LaurentPoly from the stored term arrays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep2 import sparse
from asep2.generator import h_exact
from asep2.qring import QINV, Q, LaurentPoly, q_factorial
from asep2.qsym import check_symmetry, symmetry_operators
from asep2.sparse import (
    NonIntegralQuotient,
    SparseMatrix,
    blocks,
    commutator,
    direct_sum,
    matrix_sum,
    product_difference,
)

from helpers import stored_terms, summed_terms

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


def entries(m: SparseMatrix) -> dict:
    """{(row, col): value} of the stored entries."""
    return dict(m.sorted_items())


def ref_sum(a: SparseMatrix, b: SparseMatrix, sign: int) -> dict:
    zero = LaurentPoly.zero()
    ea, eb = entries(a), entries(b)
    return _clean(
        {k: ea.get(k, zero) + sign * eb.get(k, zero) for k in set(ea) | set(eb)}
    )


def ref_product(a: SparseMatrix, b: SparseMatrix) -> dict:
    out = {}
    for (r, k), va in a.sorted_items():
        for (kk, c), vb in b.sorted_items():
            if k == kk:
                out[(r, c)] = out.get((r, c), LaurentPoly.zero()) + va * vb
    return _clean(out)


def ref_commutator(a: SparseMatrix, b: SparseMatrix) -> dict:
    ab = SparseMatrix(a.dim, ref_product(a, b))
    return ref_sum(ab, SparseMatrix(a.dim, ref_product(b, a)), -1)


def assert_clean(m: SparseMatrix) -> None:
    """No stored entry is zero and no entry holds a zero or non-int coefficient."""
    for _rc, v in m.sorted_items():
        assert isinstance(v, LaurentPoly) and v
        assert all(type(x) is int and x for x in v.terms.values())


@KERNEL_EXAMPLES
@given(matrices, matrices)
def test_add_sub(a, b):
    for out, sign in ((a + b, 1), (a - b, -1)):
        assert entries(out) == ref_sum(a, b, sign)
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
    assert entries(out) == ref_product(a, b)
    assert_clean(out)


@KERNEL_EXAMPLES
@given(matrices, matrices, polys)
def test_commutator(a, b, p):
    out = commutator(a, b)
    assert entries(out) == ref_commutator(a, b)
    assert_clean(out)
    # pairs that commute: every product term cancels
    assert commutator(a, a @ a).is_zero()
    assert commutator(a, a.scale(p)).is_zero()


@KERNEL_EXAMPLES
@given(matrices, matrices, matrices, matrices)
def test_product_difference(a, b, c, d):
    out = product_difference(a, b, c, d)
    ab, cd = SparseMatrix(DIM, ref_product(a, b)), SparseMatrix(DIM, ref_product(c, d))
    assert entries(out) == ref_sum(ab, cd, -1)
    assert_clean(out)
    assert product_difference(a, b, a, b).is_zero()


@KERNEL_EXAMPLES
@given(matrices, matrices, matrices, matrices)
def test_row_blocks(a, b, c, d):
    # with a block of at most two terms or pairs the kernel reduces the
    # output rows a few at a time; the result is the same normal form
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "CHUNK_PAIRS", 2)
        out = product_difference(a, b, c, d)
        total = matrix_sum(DIM, [a, b, c.scale(LaurentPoly.const(-1))])
    assert out == product_difference(a, b, c, d)
    assert total == matrix_sum(DIM, [a, b, c.scale(LaurentPoly.const(-1))])
    assert_clean(out)


@KERNEL_EXAMPLES
@given(st.lists(matrices, min_size=1, max_size=4), st.integers(0, 4))
def test_direct_sum_blocks_roundtrip(ms, at):
    # an empty block first, in the middle or last is kept in its place
    ms.insert(min(at, len(ms)), SparseMatrix(DIM))
    batch = direct_sum(ms)
    assert batch.dim == DIM * len(ms)
    assert batch == SparseMatrix.from_arrays(batch.dim, batch.row, batch.col, batch.h, batch.coeff)
    assert blocks(batch, DIM) == ms
    assert blocks(direct_sum([SparseMatrix(DIM)] * 3), DIM) == [SparseMatrix(DIM)] * 3


@KERNEL_EXAMPLES
@given(st.lists(st.tuples(matrices, matrices, matrices, matrices), min_size=1, max_size=3))
def test_batched_blocks_match_single(cases):
    # each block of a batched kernel pass is that relation's own result,
    # term for term
    a, b, c, d = (direct_sum(ms) for ms in zip(*cases))
    batched = {
        "commutator": blocks(commutator(a, b), DIM),
        "product_difference": blocks(product_difference(a, b, c, d), DIM),
        "matmul chain": blocks(a @ b @ c - d.scale(Q), DIM),
    }
    for k, (ak, bk, ck, dk) in enumerate(cases):
        assert batched["commutator"][k] == commutator(ak, bk)
        assert batched["product_difference"][k] == product_difference(ak, bk, ck, dk)
        assert batched["matmul chain"][k] == ak @ bk @ ck - dk.scale(Q)


def test_blocks_rejects_a_non_direct_sum():
    off = SparseMatrix(2 * DIM, {(0, DIM): LaurentPoly.const(1)})
    with pytest.raises(ValueError):
        blocks(off, DIM)
    with pytest.raises(ValueError):
        blocks(SparseMatrix(2 * DIM), 4)
    with pytest.raises(ValueError):
        direct_sum([SparseMatrix(2), SparseMatrix(3)])
    with pytest.raises(ValueError):
        direct_sum([])


def test_batch_past_int64_raises_before_pairs(monkeypatch):
    # 2^61 * 2 fits one product, but the batch bound sums the two blocks'
    # pairs to 2^63; it raises before the row blocks that form the pairs
    big = SparseMatrix(1, {(0, 0): LaurentPoly.const(2**61)})
    two = SparseMatrix(1, {(0, 0): LaurentPoly.const(2)})
    assert (big @ two).get(0, 0) == LaurentPoly.const(2**62)

    def no_pairs(*args):
        raise AssertionError("term pairs formed past the bound")

    monkeypatch.setattr(sparse, "_row_blocks", no_pairs)
    with pytest.raises(OverflowError):
        direct_sum([big, big]) @ direct_sum([two, two])
    with pytest.raises(OverflowError):
        commutator(direct_sum([big, big]), direct_sum([two, two]))


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
    key = min(k for k in entries(H) if k[0] != k[1])
    bad = SparseMatrix(H.dim, {**entries(H), key: H.get(*key) * Q})
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


def test_product_past_int64_raises():
    # 2^62 * 2 summed over one pair already exceeds 2^63 - 1: the bound is
    # checked before any term is formed, and nothing wraps
    big = SparseMatrix(1, {(0, 0): LaurentPoly.const(2**62)})
    two = SparseMatrix(1, {(0, 0): LaurentPoly.const(2)})
    with pytest.raises(OverflowError):
        big @ two
    with pytest.raises(OverflowError):
        commutator(big, two)
    with pytest.raises(OverflowError):
        matrix_sum(1, [big, big])
    with pytest.raises(OverflowError):
        big.scale(LaurentPoly.const(2))
    # just below the bound the product is exact
    half = SparseMatrix(1, {(0, 0): LaurentPoly.const(2**62 - 1)})
    assert (half @ two).get(0, 0) == LaurentPoly.const(2**63 - 2)


def test_sort_key_past_int64_raises():
    # dim^2 * span > 2^63 - 1: the (row, col, h) sort key could wrap
    wide = LaurentPoly({-(2**40): 1, 2**40: 1})
    with pytest.raises(OverflowError):
        SparseMatrix(2**12, {(0, 0): wide})


def test_coefficient_outside_int64_raises():
    for c in (2**63, -(2**63), 2**70):
        with pytest.raises(OverflowError):
            SparseMatrix(2, {(0, 1): LaurentPoly.const(c)})
    top = SparseMatrix(2, {(0, 1): LaurentPoly.const(2**63 - 1)})
    assert top.get(0, 1) == LaurentPoly.const(2**63 - 1)


def test_normal_form():
    # one element per term, sorted by (row, col, h), no zero coefficient;
    # nnz counts entries, not terms
    m = SparseMatrix(3, {(2, 0): LaurentPoly({3: 1, -1: 2}), (0, 1): LaurentPoly({0: -1})})
    assert m.row.tolist() == [0, 2, 2]
    assert m.col.tolist() == [1, 0, 0]
    assert m.h.tolist() == [0, -1, 3]
    assert m.coeff.tolist() == [-1, 2, 1]
    assert m.nnz == 2
    assert [rc for rc, _v in m.sorted_items()] == [(2, 0), (0, 1)]
    assert m.first_entry() == ((2, 0), LaurentPoly({3: 1, -1: 2}))
    assert m.get(1, 1) is None


def test_float_matrices_are_not_combined():
    # float matrices are built from term arrays, here out of order
    f = SparseMatrix.from_arrays(
        2, np.array([1, 0]), np.array([1, 1]), np.zeros(2, np.int64), np.array([-0.25, 0.5])
    )
    assert f.coeff.dtype == np.float64 and f.get(0, 1) == 0.5
    assert (f.row.tolist(), f.col.tolist(), f.coeff.tolist()) == ([0, 1], [1, 1], [0.5, -0.25])
    with pytest.raises(TypeError):
        f @ f
    with pytest.raises(TypeError):
        f + f
    with pytest.raises(TypeError):
        SparseMatrix(2, {(0, 1): 0.5})


@pytest.mark.parametrize(
    "build",
    [
        lambda: SparseMatrix(2, {(0, 1): Q, (1, 1): 3}),
        lambda: SparseMatrix.from_arrays(
            2, np.array([1, 0]), np.array([1, 1]), np.zeros(2, np.int64), np.array([-0.25, 0.5])
        ),
        lambda: SparseMatrix(2, {(0, 1): Q}) @ SparseMatrix(2, {(1, 0): 2}),
        lambda: SparseMatrix(2, {(0, 1): Q}).transpose(),
        lambda: blocks(direct_sum([SparseMatrix.identity(2)] * 2), 2)[1],
        lambda: SparseMatrix(2),
    ],
    ids=["exact", "float", "product", "transpose", "block", "empty"],
)
def test_terms_are_read_only(build):
    # caches keyed on a matrix object (sector generators, evolve's stored
    # squares) rely on it: no constructor leaves a term array writeable
    m = build()
    for terms in (m.row, m.col, m.h, m.coeff):
        with pytest.raises(ValueError, match="read-only"):
            terms[:1] = 0
    with pytest.raises(ValueError, match="read-only"):
        m.coeff *= 2


@pytest.mark.parametrize("n", [0, 2])
def test_callers_arrays_stay_writeable(n):
    # only the matrix's own term arrays are read-only, even with no terms
    terms = [np.arange(n), np.arange(n), np.zeros(n, np.int64), np.ones(n)]
    SparseMatrix.from_arrays(2, *terms)
    assert all(x.flags.writeable for x in terms)


# terms on a few keys, so that most keys repeat; the floats mix scales
# so that the order of a key's additions shows in its rounding
term_keys = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-1, 1))
int_terms = st.lists(st.tuples(term_keys, st.integers(-(2**40), 2**40)), max_size=30)
float_terms = st.lists(
    st.tuples(
        term_keys.map(lambda key: (key[0], key[1], 0)),
        st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.1, 3.0, 2.5e-8]) | st.floats(-1e3, 1e3),
    ),
    max_size=30,
)


def _term_arrays(terms, dtype):
    keys = np.array([key for key, _x in terms], dtype=np.int64).reshape(-1, 3)
    return keys[:, 0], keys[:, 1], keys[:, 2], np.array([x for _key, x in terms], dtype=dtype)


@KERNEL_EXAMPLES
@given(st.one_of(int_terms.map(lambda t: (t, np.int64)), float_terms.map(lambda t: (t, np.float64))))
def test_from_arrays_sums_like_a_dict(case):
    # each key's terms added in input order, float sums bit for bit, and a
    # key whose terms cancel is dropped; negated copies after the terms
    # cancel every key of an int matrix
    terms, dtype = case
    arrays = _term_arrays(terms, dtype)
    m = SparseMatrix.from_arrays(2, *arrays)
    assert m.coeff.dtype == dtype
    assert stored_terms(m) == summed_terms(*(x.tolist() for x in arrays))
    keys = list(zip(m.row.tolist(), m.col.tolist(), m.h.tolist()))
    assert keys == sorted(set(keys)) and np.all(m.coeff != 0)
    if dtype == np.int64:
        negated = [(key, -x) for key, x in terms]
        assert SparseMatrix.from_arrays(2, *_term_arrays(terms + negated, dtype)).is_zero()


@KERNEL_EXAMPLES
@given(matrices, st.integers(0, 5))
def test_exact_quotient_times_divisor_is_entry(a, n):
    # each quotient entry, multiplied back by the divisor in LaurentPoly
    # arithmetic, is the dividend's entry
    for divisor in (q_factorial(n), Q - QINV):
        product = a.scale(divisor)
        quotient = product.exact_quotient(divisor)
        assert quotient == a
        assert {rc: v * divisor for rc, v in entries(quotient).items()} == entries(product)
        assert_clean(quotient)


@KERNEL_EXAMPLES
@given(matrices, st.integers(0, DIM - 1), st.integers(0, DIM - 1))
def test_exact_quotient_remainder_raises(a, r, c):
    # entry (r, c) is a multiple of q - 1/q plus 1: every multiple of
    # q - 1/q vanishes at q = 1 and the entry is 1 there, so q - 1/q does
    # not divide it
    divisor = Q - QINV
    m = a.scale(divisor) + SparseMatrix(DIM, {(r, c): 1})
    assert sum(m.get(r, c).terms.values()) == 1
    with pytest.raises(NonIntegralQuotient):
        m.exact_quotient(divisor)


def test_exact_quotient_rejects_bad_divisors():
    m = SparseMatrix(DIM, {(0, 1): Q})
    assert m.exact_quotient(1) == m
    with pytest.raises(ValueError):
        m.exact_quotient(2 * Q)
    with pytest.raises(ZeroDivisionError):
        m.exact_quotient(0)
    with pytest.raises(TypeError):
        SparseMatrix.from_arrays(
            1, np.zeros(1, np.int64), np.zeros(1, np.int64), np.zeros(1, np.int64), np.ones(1)
        ).exact_quotient(1)


big_polys = st.dictionaries(
    st.integers(-3, 3), st.integers(-(2**62), 2**62).filter(bool), min_size=1, max_size=3
).map(LaurentPoly)
big_matrices = st.dictionaries(
    st.tuples(st.integers(0, DIM - 1), st.integers(0, DIM - 1)), big_polys, max_size=6
).map(lambda entries: SparseMatrix(DIM, entries))


@KERNEL_EXAMPLES
@given(big_matrices, big_matrices, big_polys)
def test_past_int64_an_error_never_a_wrapped_value(a, b, p):
    # with coefficients up to 2^62 every result is the exact one or raises
    # OverflowError; the references compute in Python integers
    for form, reference in (
        (lambda: a @ b, lambda: ref_product(a, b)),
        (lambda: a + b, lambda: ref_sum(a, b, 1)),
        (lambda: commutator(a, b), lambda: ref_commutator(a, b)),
        (
            lambda: SparseMatrix.from_arrays(
                DIM, *(np.concatenate([x, y]) for x, y in zip(
                    (a.row, a.col, a.h, a.coeff), (b.row, b.col, b.h, b.coeff)
                ))
            ),
            lambda: ref_sum(a, b, 1),
        ),
    ):
        try:
            out = form()
        except OverflowError:
            continue
        assert entries(out) == reference()
    # a monic divisor and a quotient with large coefficients: an entry
    # that fits int64 divides back to the quotient or raises
    divisor = Q + LaurentPoly.const(2)
    try:
        m = SparseMatrix(DIM, {(0, 0): p * divisor})
    except OverflowError:
        return
    try:
        quotient = m.exact_quotient(divisor)
    except OverflowError:
        return
    assert quotient.get(0, 0) == p


def test_exact_quotient_wrap_raises():
    # c q + (2 c mod 2^64) + c/q, c = 2^62 + 1, is (q + 1)(c + c/q) modulo
    # 2^64 only: over the integers q + 1 divides it iff it vanishes at
    # q = -1, and it is -2^64 there.  The table leaves no remainder, and
    # the quotient bound raises where a wrapped quotient would otherwise
    # come out
    c = 2**62 + 1
    wrapped = LaurentPoly({2: c, 0: 2 * c - 2**64, -2: c})
    divisor = Q + 1
    assert sum(v * (-1) ** (h // 2) for h, v in wrapped.terms.items()) == -(2**64)
    with pytest.raises(OverflowError):
        SparseMatrix(1, {(0, 0): wrapped}).exact_quotient(divisor)
    # at the edge: max|quotient| sum|divisor| = 2^63 - 2 is exact
    edge = LaurentPoly.const(2**62 - 1) * (Q - QINV)
    quotient = SparseMatrix(1, {(0, 0): edge}).exact_quotient(Q - QINV)
    assert quotient.get(0, 0) == LaurentPoly.const(2**62 - 1)
    with pytest.raises(OverflowError):
        SparseMatrix(1, {(0, 0): LaurentPoly.const(2**62) * (Q - QINV)}).exact_quotient(Q - QINV)


def test_from_arrays_past_int64_raises():
    # two terms of one key summing past 2^63 - 1 raise, never wrap; so
    # does the int64 minimum, whose negation (and np.abs) wraps
    one = np.zeros(2, np.int64)
    with pytest.raises(OverflowError):
        SparseMatrix.from_arrays(1, one, one, one, np.full(2, 2**62, np.int64))
    with pytest.raises(OverflowError):
        SparseMatrix.from_arrays(1, one[:1], one[:1], one[:1], np.array([-(2**63)]))


def _fresh(m: SparseMatrix) -> SparseMatrix:
    """A copy of m with its own term arrays and no cached row pointer."""
    return SparseMatrix.from_arrays(m.dim, m.row.copy(), m.col.copy(), m.h.copy(), m.coeff.copy())


@KERNEL_EXAMPLES
@given(matrices, st.lists(matrices, min_size=1, max_size=5), st.sampled_from([2, 1 << 20]))
def test_reused_operand_matches_fresh_copies(a, others, chunk):
    # the row pointer and maxima a matrix caches on its first product
    # serve every later one, in one row block or in many
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse, "CHUNK_PAIRS", chunk)
        for b in others:
            assert a @ b == _fresh(a) @ _fresh(b)
            assert b @ a == _fresh(b) @ _fresh(a)
            assert commutator(a, b) == commutator(_fresh(a), _fresh(b))
            assert a - b == _fresh(a) - _fresh(b)
            assert a @ a @ b == _fresh(a) @ _fresh(a) @ _fresh(b)
