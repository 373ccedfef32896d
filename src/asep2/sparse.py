"""Sparse square matrices; their algebra is exact.

Storage is four parallel int64 arrays, `row`, `col`, `h` and `coeff`:
one element per term coeff * q**(h/2) of entry (row, col), sorted by
(row, col, h), with no key repeated and no zero coefficient.  That normal
form is unique, so a matrix is identically zero iff it stores no term, and
two matrices are equal iff their arrays are.  An entry becomes a
LaurentPoly only when it is read (`get`, `first_entry`, `sorted_items`).
Dumps order entries column-compressed, (col, row) ascending, so
serialised matrices are deterministic.

Every constructor normalises through `_reduce`: one stable sort on the
key (row*dim + col)*span + (h - h_min); each key keeps its first term's
row, col and h, the later terms of a repeated key are added onto it in
sort order (input order within a key, so a float sum is the
left-to-right sum), and the zero sums are dropped.  +, -, @, `scale`,
`commutator`, `product_difference` and `matrix_sum` run through one
kernel, `_combine`: a product joins each term of a to the terms of b's
row a.col (b's row pointer, `np.repeat` for the pairs), and the gathered
terms go through `_reduce` one block of output rows (about CHUNK_PAIRS
terms and pairs) at a time.  A matrix computes its row pointer, max
|coeff| and max |h| once, when a kernel first asks for them; its terms
are read-only, so they cannot go stale.

`exact_quotient` divides every entry by a monic polynomial: long
division on a dense int64 table, one row per exponent and one column per
entry, so that one step divides every entry.  It is the package's one
exact division; the package divides by [n]! and q - 1/q, and a remainder
(NonIntegralQuotient) always signals a bug in the caller.

A family of same-shaped identities takes one kernel pass: `direct_sum`
stacks its operands block-diagonally, the identity is formed once on the
direct sums, and `blocks` splits the residual into each identity's own
residual, in the same normal form as if it had been formed alone.

Exactness: the kernel's int64 arrays never wrap.  Before `_combine`
forms a term, sum max|a| max|b| pairs over its products plus sum max|x|
size over its summands (a bound on every coefficient and partial sum it
can reach), and max|h_a| + max|h_b| for the exponents, are checked
against 2^63 - 1 in Python integers, and `_reduce` checks dim^2 span, the
largest sort key; past any bound they raise OverflowError.  Numpy does
not warn when int64 arithmetic wraps, so these bounds are the only guard.
Building a matrix from a LaurentPoly with a coefficient of magnitude 2^63
or more raises OverflowError too, and `from_arrays` bounds its int terms
as one summand.  The bound of a product of direct sums counts the pairs
of every block, so a batch can raise where each identity formed alone
would not.

`exact_quotient`'s table is the one place int64 may wrap: it is computed
modulo 2^64 on purpose, since exact division by a monic polynomial is
unique modulo 2^64 as it is over the integers.  So a nonzero remainder
proves that no exact quotient exists (NonIntegralQuotient), and a zero
one gives quotient * divisor = entry modulo 2^64, which is an equality
once max|quotient| sum|divisor| <= 2^63 - 1; past that bound it raises
OverflowError.  Every identity is decided over the integers: no float,
modular or evaluation shortcut decides one.

A float matrix (the float generator) shares the layout with h = 0 and
float64 coefficients, one per entry.  `_combine` refuses it; its users
read the term arrays themselves.  `dynamics.evolve_vector` and
`measures.check_grandcanonical_stationarity` multiply a vector by it with
one `np.bincount` over its terms, and `dynamics.evolve` fills its dense
symmetrized kernel from them.

Matrices are immutable once built: every constructor marks the four
term arrays read-only, so a cache keyed on a matrix object (such as
`dynamics.sector_generator`'s and the slot that `evolve` keeps) cannot
go stale.

`mirror` is a read-only index permutation of the basis that the float
generator builder attaches (`generator._gather`, through `from_arrays`);
every other constructor sets it to None.  The builder's generators
commute with it exactly at any rates, but `from_arrays` attaches any
permutation, so `dynamics.evolve` folds over it only after testing that
the terms commute with it exactly.  Equality compares the terms alone.
"""

from __future__ import annotations

import numpy as np

from .qring import ONE, _coerce, from_terms

INT64_MAX = int(np.iinfo(np.int64).max)
# `_combine` forms and reduces the terms of about this many output rows'
# terms and pairs at a time
CHUNK_PAIRS = 1 << 20


class NonIntegralQuotient(ArithmeticError):
    """A polynomial quotient that must be exact left a remainder."""


class SparseMatrix:
    __slots__ = ("dim", "row", "col", "h", "coeff", "mirror", "_ptr", "_bounds")

    def __init__(self, dim: int, entries=None):
        """An exact matrix from a {(row, col): LaurentPoly or int} map, zero
        values dropped; float matrices are built by `from_arrays`."""
        items = [(rc, v) for rc, v in entries.items() if v] if entries else []
        rows = np.fromiter((r for (r, _c), _v in items), np.int64, len(items))
        cols = np.fromiter((c for (_r, c), _v in items), np.int64, len(items))
        polys = [_coerce(v) for _rc, v in items]
        if any(p is None for p in polys):
            raise TypeError("entries must all be LaurentPoly or int")
        sizes = [len(p.terms) for p in polys]
        n = sum(sizes)
        h = np.fromiter((h for p in polys for h in p.terms), np.int64, n)
        coeff = _int64([x for p in polys for x in p.terms.values()])
        terms = (np.repeat(rows, sizes), np.repeat(cols, sizes), h, coeff)
        _check_range(dim, rows, cols)
        self._own(dim, *_reduce(dim, *terms))

    @classmethod
    def from_arrays(cls, dim: int, row, col, h, coeff, mirror=None) -> "SparseMatrix":
        """From parallel term arrays in any order, repeated keys summed;
        int64 coefficients make an exact matrix, float64 ones (h = 0) a
        float one.  `mirror` is an index permutation of the basis to
        attach (`lattice.mirror`), or None."""
        _check_range(dim, row, col)
        if coeff.dtype.kind != "f":
            # the terms are one summand, bounded as `_combine` bounds each
            _guard(_max_abs(coeff) * len(coeff), "sparse sum")
        out = cls._trusted(dim, *_reduce(dim, row, col, h, coeff))
        if mirror is not None:
            out.mirror = np.array(mirror, dtype=np.intp)
            out.mirror.setflags(write=False)
        return out

    @classmethod
    def _trusted(cls, dim: int, row, col, h, coeff) -> "SparseMatrix":
        """Take ownership of term arrays already in normal form."""
        out = cls.__new__(cls)
        out._own(dim, row, col, h, coeff)
        return out

    def _own(self, dim: int, row, col, h, coeff) -> None:
        """Store dim and the term arrays, made read-only, with no mirror."""
        for terms in (row, col, h, coeff):
            terms.setflags(write=False)
        self.dim = dim
        self.row, self.col, self.h, self.coeff = row, col, h, coeff
        self.mirror = self._ptr = self._bounds = None

    def _row_ptr(self) -> np.ndarray:
        """Terms ptr[r]:ptr[r + 1] are row r's (computed once: the terms
        are read-only)."""
        if self._ptr is None:
            self._ptr = np.zeros(self.dim + 1, np.int64)
            np.cumsum(np.bincount(self.row, minlength=self.dim), out=self._ptr[1:])
        return self._ptr

    def _maxima(self) -> tuple[int, int]:
        """(max |coeff|, max |h|) over the terms (computed once)."""
        if self._bounds is None:
            self._bounds = _max_abs(self.coeff), _max_abs(self.h)
        return self._bounds

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "SparseMatrix":
        return cls.monomial_diagonal(np.zeros(dim, np.int64))

    @classmethod
    def monomial_diagonal(cls, half_exponents) -> "SparseMatrix":
        """The diagonal matrix with entries q**(half_exponents[i]/2)."""
        h = np.asarray(half_exponents, dtype=np.int64)
        i = np.arange(len(h))
        return cls.from_arrays(len(h), i, i, h, np.ones(len(h), np.int64))

    @classmethod
    def diagonal(cls, values) -> "SparseMatrix":
        values = list(values)
        return cls(len(values), {(i, i): v for i, v in enumerate(values)})

    # -- queries ----------------------------------------------------------

    def _span(self, r: int, c: int) -> tuple[int, int]:
        """The term positions lo:hi of entry (r, c)."""
        lo, hi = np.searchsorted(self.row, (r, r + 1))
        first, last = np.searchsorted(self.col[lo:hi], (c, c + 1))
        return int(lo + first), int(lo + last)

    def _value(self, lo: int, hi: int):
        """The entry held by terms lo:hi: a float, or a LaurentPoly."""
        if self.coeff.dtype.kind == "f":
            return float(self.coeff[lo])
        return from_terms(dict(zip(self.h[lo:hi].tolist(), self.coeff[lo:hi].tolist())))

    def get(self, r: int, c: int):
        lo, hi = self._span(r, c)
        return self._value(lo, hi) if hi > lo else None

    def is_zero(self) -> bool:
        return not len(self.coeff)

    def is_diagonal(self) -> bool:
        return bool(np.all(self.row == self.col))

    def _entry_starts(self) -> np.ndarray:
        """Position of each entry's first term."""
        n = len(self.coeff)
        new = np.ones(n, dtype=bool)
        new[1:] = (self.row[1:] != self.row[:-1]) | (self.col[1:] != self.col[:-1])
        return np.flatnonzero(new)

    @property
    def nnz(self) -> int:
        """Number of nonzero entries (not of terms)."""
        return len(self._entry_starts())

    def first_entry(self):
        """Deterministic first stored entry in (col, row) order."""
        t = int(np.argmin(self.col * self.dim + self.row))
        r, c = int(self.row[t]), int(self.col[t])
        return (r, c), self.get(r, c)

    def sorted_items(self):
        """((row, col), value) of every entry, in (col, row) order."""
        starts = self._entry_starts()
        ends = np.append(starts[1:], len(self.coeff)).tolist()
        rows, cols = self.row[starts], self.col[starts]
        for e in np.lexsort((rows, cols)).tolist():
            lo = int(starts[e])
            yield (int(rows[e]), int(cols[e])), self._value(lo, ends[e])

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        mine = (self.row, self.col, self.h, self.coeff)
        theirs = (other.row, other.col, other.h, other.coeff)
        return (
            self.dim == other.dim
            and self.coeff.dtype == other.coeff.dtype
            and all(np.array_equal(x, y) for x, y in zip(mine, theirs))
        )

    __hash__ = None  # equality is by value, over arrays numpy does not hash

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, sums=((1, self), (1, other)))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, sums=((1, self), (-1, other)))

    def scale(self, scalar) -> "SparseMatrix":
        """scalar * self for a LaurentPoly or int scalar: self times the
        diagonal matrix with scalar in every diagonal entry."""
        terms = (ONE * scalar).terms
        hs = sorted(terms)
        i = np.repeat(np.arange(self.dim), len(hs))
        h = np.tile(np.array(hs, dtype=np.int64), self.dim)
        x = np.tile(_int64([terms[k] for k in hs]), self.dim)
        return self @ SparseMatrix._trusted(self.dim, i, i, h, x)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, products=((1, self, other),))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_arrays(self.dim, self.col, self.row, self.h, self.coeff)

    def exact_quotient(self, divisor) -> "SparseMatrix":
        """Every entry divided exactly by a monic LaurentPoly (or int).

        Long division on a dense int64 table, one row per exponent and one
        column per entry, from the highest exponent down.  A remainder
        raises NonIntegralQuotient; the module docstring gives the
        exactness rule."""
        _require_exact(self.dim, self)
        b = _coerce(divisor)
        if b is None:
            raise TypeError("the divisor must be a LaurentPoly or int")
        if not b:
            raise ZeroDivisionError("division by the zero polynomial")
        top = max(b.terms)
        if b.terms[top] != 1:
            raise ValueError(f"the divisor ({b}) is not monic")
        if self.is_zero():
            return self
        width = top - min(b.terms)
        # the divisor's lower terms, by how far each sits below its top
        lower = {top - k: v for k, v in b.terms.items() if k != top}
        below = np.array(list(lower), dtype=np.int64)
        factor = _int64(list(lower.values()))[:, None]
        starts = self._entry_starts()
        entry = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(self.coeff)))
        low = int(self.h.min())
        table = np.zeros((int(self.h.max()) - low + 1, len(starts)), np.int64)
        table[self.h - low, entry] = self.coeff
        # row k >= width ends as the quotient's row k - width
        for k in range(len(table) - 1, width - 1, -1):
            table[k - below] -= factor * table[k]
        if table[:width].any():
            raise NonIntegralQuotient(f"an entry is not divisible by ({b})")
        e, k = np.nonzero(table[width:].T)
        x = table[k + width, e]
        _guard(_max_abs(x) * sum(abs(v) for v in b.terms.values()), "exact quotient")
        starts = starts[e]
        return SparseMatrix._trusted(
            self.dim, self.row[starts], self.col[starts], k + (low + width - top), x
        )

    def __repr__(self):
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"


def product_difference(
    a: SparseMatrix, b: SparseMatrix, c: SparseMatrix, d: SparseMatrix
) -> SparseMatrix:
    """a @ b - c @ d in one pass, with no intermediate product matrix."""
    return _combine(a.dim, products=((1, a, b), (-1, c, d)))


def commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    return product_difference(a, b, b, a)


def matrix_sum(dim: int, matrices) -> SparseMatrix:
    """The sum of an iterable of dim x dim matrices, in one pass."""
    return _combine(dim, sums=((1, m) for m in matrices))


def direct_sum(matrices) -> SparseMatrix:
    """The block-diagonal matrix of equal-dim matrices m_0, m_1, ...:
    block k holds m_k at rows and columns k*dim .. (k+1)*dim - 1.  Each
    term array is in normal form and the offsets grow with k, so their
    concatenation is too."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("a direct sum needs at least one matrix")
    dim = matrices[0].dim
    for m in matrices:
        if m.dim != dim:
            raise ValueError(f"dimension mismatch {dim} vs {m.dim}")
    offsets = np.repeat(np.arange(len(matrices)) * dim, [len(m.coeff) for m in matrices])
    row, col, h, coeff = (
        np.concatenate(arrays)
        for arrays in zip(*((m.row, m.col, m.h, m.coeff) for m in matrices))
    )
    return SparseMatrix._trusted(len(matrices) * dim, row + offsets, col + offsets, h, coeff)


def blocks(m: SparseMatrix, dim: int) -> list[SparseMatrix]:
    """The dim x dim diagonal blocks of a direct sum, in order; each one
    is in normal form as its slice of m's terms.  ValueError if m.dim is
    not a multiple of dim or a term lies off the diagonal blocks."""
    if dim <= 0 or m.dim % dim:
        raise ValueError(f"dim {m.dim} is not a multiple of {dim}")
    if np.any(m.row // dim != m.col // dim):
        raise ValueError("a term lies off the diagonal blocks")
    starts = np.searchsorted(m.row, np.arange(0, m.dim + 1, dim)).tolist()
    return [
        SparseMatrix._trusted(
            dim, m.row[lo:hi] - k * dim, m.col[lo:hi] - k * dim, m.h[lo:hi], m.coeff[lo:hi]
        )
        for k, (lo, hi) in enumerate(zip(starts, starts[1:]))
    ]


def _combine(dim: int, sums=(), products=()) -> SparseMatrix:
    """sign * m summed over (sign, m) in sums, plus sign * (a @ b) summed
    over (sign, a, b) in products, reduced term by term.

    A product pairs each term (r, k, ha, xa) of a with every term
    (k, c, hb, xb) of b's row k, giving (r, c, ha + hb, xa * xb); b's
    terms are sorted by row, so row k is the slice its row pointer gives.
    The exactness bound is checked before any term pair is formed.  The
    output rows are taken in blocks of about CHUNK_PAIRS terms and pairs,
    each reduced on its own: a block's rows are final once reduced, so the
    working memory is one block's terms however large the products are.
    """
    sums = [(sign, m) for sign, m in sums]
    joins, bound, total = [], 0, 0
    for _sign, m in sums:
        _require_exact(dim, m)
        bound += m._maxima()[0] * len(m.coeff)
        total += len(m.coeff)
    for sign, a, b in products:
        _require_exact(dim, a)
        _require_exact(dim, b)
        ptr = b._row_ptr()
        lo = ptr[a.col]
        counts = ptr[a.col + 1] - lo
        pairs = int(counts.sum())
        (xa, ha), (xb, hb) = a._maxima(), b._maxima()
        bound += xa * xb * pairs
        total += pairs
        _guard(ha + hb, "product exponents")
        joins.append((sign, a, b, lo, counts))
    _guard(bound, "sparse sum of products")
    parts = []
    ranges = _row_blocks(dim, total, sums, joins) if total else []
    for r0, r1 in ranges:
        block = []
        for sign, m in sums:
            i0, i1 = _rows(m, r0, r1)
            x = m.coeff[i0:i1]
            block.append((m.row[i0:i1], m.col[i0:i1], m.h[i0:i1], x if sign > 0 else -x))
        for sign, a, b, lo, counts in joins:
            t0, t1 = _rows(a, r0, r1)
            n = counts[t0:t1]
            ia = np.repeat(np.arange(t0, t1), n)
            # the j-th pair of term t of a takes term lo[t] + j of b
            ib = np.arange(len(ia)) + np.repeat(lo[t0:t1] - (np.cumsum(n) - n), n)
            x = a.coeff[ia] * b.coeff[ib]
            block.append((a.row[ia], b.col[ib], a.h[ia] + b.h[ib], x if sign > 0 else -x))
        terms = block[0] if len(block) == 1 else (np.concatenate(t) for t in zip(*block))
        reduced = _reduce(dim, *terms)
        if len(reduced[3]):
            parts.append(reduced)
    if not parts:
        return SparseMatrix._trusted(dim, *(np.zeros(0, np.int64) for _ in range(4)))
    if len(parts) == 1:
        return SparseMatrix._trusted(dim, *parts[0])
    return SparseMatrix._trusted(dim, *(np.concatenate(arrays) for arrays in zip(*parts)))


def _rows(m: SparseMatrix, r0: int, r1: int) -> tuple[int, int]:
    """The positions i0:i1 of m's terms in rows r0:r1."""
    if r0 == 0 and r1 == m.dim:
        return 0, len(m.coeff)
    ptr = m._row_ptr()
    return int(ptr[r0]), int(ptr[r1])


def _row_blocks(dim: int, total: int, sums, joins) -> list[tuple[int, int]]:
    """Ranges r0:r1 of output rows with about CHUNK_PAIRS of the `total`
    summand terms and product pairs each (one range if all fit)."""
    if total <= CHUNK_PAIRS:
        return [(0, dim)]
    cost = np.zeros(dim, dtype=np.int64)
    for _sign, m in sums:
        cost += np.bincount(m.row, minlength=dim)
    for _sign, a, _b, _lo, counts in joins:
        cost += np.bincount(a.row, weights=counts, minlength=dim).astype(np.int64)
    cuts = np.searchsorted(np.cumsum(cost), np.arange(CHUNK_PAIRS, total, CHUNK_PAIRS)) + 1
    rows = [0, *np.unique(cuts).tolist(), dim]
    return list(zip(rows, rows[1:]))


def _reduce(dim: int, row, col, h, coeff) -> tuple:
    """The normal form of a list of terms: sorted by (row, col, h), the
    coefficients of equal keys summed left to right (see the module
    docstring) and zero sums dropped.

    Raises OverflowError if the sort key (row*dim + col)*span + (h - h_min)
    could pass 2^63 - 1."""
    if not len(coeff):
        return row[:0], col[:0], h[:0], coeff[:0]  # views: the caller's stay writeable
    lo = int(h.min())
    span = int(h.max()) - lo + 1
    _guard(dim * dim * span, "sparse sort key")
    key = (row * dim + col) * span + (h - lo)
    order = np.argsort(key, kind="stable")
    key = key[order]
    new = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:])
    first = order[new]
    total = coeff[first]
    if len(first) < len(order):
        # `np.add.at` adds in index order, unbuffered: left to right per key
        later = ~new
        np.add.at(total, np.cumsum(new)[later] - 1, coeff[order[later]])
    keep = total != 0
    if not keep.all():
        first, total = first[keep], total[keep]
    return row[first], col[first], h[first], total


def _check_range(dim: int, row, col) -> None:
    if len(row) and (min(row.min(), col.min()) < 0 or max(row.max(), col.max()) >= dim):
        raise IndexError(f"entry outside dim {dim}")


def _int64(values: list) -> np.ndarray:
    """Int coefficients as an int64 array; OverflowError for any of
    magnitude 2^63 or more."""
    if values and max(max(values), -min(values)) > INT64_MAX:
        raise OverflowError("a coefficient exceeds the int64 range")
    return np.array(values, dtype=np.int64)


def _max_abs(x: np.ndarray) -> int:
    """max |x|, in Python integers: np.abs of the int64 minimum wraps."""
    return max(int(x.max()), -int(x.min())) if len(x) else 0


def _guard(bound: int, what: str) -> None:
    if bound > INT64_MAX:
        raise OverflowError(f"{what} could exceed int64 (bound {bound})")


def _require_exact(dim: int, m: SparseMatrix) -> None:
    if m.dim != dim:
        raise ValueError(f"dimension mismatch {dim} vs {m.dim}")
    if m.coeff.dtype.kind == "f":
        raise TypeError("float matrices are built from term arrays and read, never combined")
