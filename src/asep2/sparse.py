"""Sparse square matrices; their algebra is exact.

Storage is a coordinate hash map of nonzero entries, so a matrix is
identically zero iff it stores nothing, which is what the identity checks
test.  Dumps order entries column-compressed, (col, row) ascending, so
serialised matrices are deterministic.

+, -, @, `commutator`, `product_difference` and `matrix_sum` take
LaurentPoly entries only and run on their integer terms (`_combine`): no
polynomial is built per scalar product, and a commutator is one pass with
no intermediate product.  Float matrices (the float generator) are built
and converted, never multiplied: their arithmetic goes through `to_numpy`.

Matrices are treated as immutable once built.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from .qring import ONE, from_terms


class SparseMatrix:
    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        cleaned = {}
        if entries:
            for (r, c), v in entries.items():
                if not 0 <= r < dim or not 0 <= c < dim:
                    raise IndexError(f"entry ({r},{c}) outside dim {dim}")
                if v:
                    cleaned[(r, c)] = v
        self.entries = cleaned

    @classmethod
    def _trusted(cls, dim: int, entries: dict) -> "SparseMatrix":
        """Take ownership of in-range entries that are already nonzero."""
        out = cls.__new__(cls)
        out.dim = dim
        out.entries = entries
        return out

    # -- constructors ---------------------------------------------------

    @classmethod
    def identity(cls, dim: int) -> "SparseMatrix":
        return cls(dim, {(i, i): ONE for i in range(dim)})

    @classmethod
    def diagonal(cls, values) -> "SparseMatrix":
        values = list(values)
        return cls(len(values), {(i, i): v for i, v in enumerate(values)})

    # -- queries ----------------------------------------------------------

    def get(self, r: int, c: int):
        return self.entries.get((r, c))

    def is_zero(self) -> bool:
        return not self.entries

    def is_diagonal(self) -> bool:
        return all(r == c for r, c in self.entries)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def first_entry(self):
        """Deterministic first stored entry in (col, row) order."""
        key = min(self.entries, key=lambda rc: (rc[1], rc[0]))
        return key, self.entries[key]

    def sorted_items(self):
        for key in sorted(self.entries, key=lambda rc: (rc[1], rc[0])):
            yield key, self.entries[key]

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    __hash__ = None  # mutable container semantics; equality is by value

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, sums=((1, self), (1, other)))

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, sums=((1, self), (-1, other)))

    def scale(self, scalar) -> "SparseMatrix":
        if not scalar:
            return SparseMatrix(self.dim, {})
        return SparseMatrix(self.dim, {k: scalar * v for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        return _combine(self.dim, products=((1, self, other),))

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._trusted(
            self.dim, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def map_entries(self, fn) -> "SparseMatrix":
        return SparseMatrix(self.dim, {k: fn(v) for k, v in self.entries.items()})

    # -- conversion ---------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Dense float array of a float matrix."""
        out = np.zeros((self.dim, self.dim))
        for (r, c), v in self.entries.items():
            out[r, c] = float(v)
        return out

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


def _combine(dim: int, sums=(), products=()) -> SparseMatrix:
    """sign * m summed over (sign, m) in sums, plus sign * (a @ b) summed
    over (sign, a, b) in products, accumulated term by term.

    `rows[r]` maps `h * dim + c` to the integer coefficient of q**(h/2)
    gathered so far for entry (r, c): one flat key per term keeps the
    inner loop at one dict lookup, and `divmod(key, dim)` gives (h, c)
    back, also for negative h.  Coefficients that cancel to zero, and
    entries left with none, are dropped once, at the end.
    """
    rows: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for sign, m in sums:
        _check_dim(dim, m)
        for (r, c), v in m.entries.items():
            row = rows[r]
            for h, x in v.terms.items():
                key = h * dim + c
                row[key] = row.get(key, 0) + sign * x
    for sign, a, b in products:
        _check_dim(dim, a)
        _check_dim(dim, b)
        b_terms: defaultdict[int, list] = defaultdict(list)  # row k of b
        for (k, c), v in b.entries.items():
            b_row = b_terms[k]
            for h, x in v.terms.items():
                b_row.append((h * dim + c, x))
        for (r, k), v in a.entries.items():
            b_row = b_terms.get(k)
            if b_row is None:
                continue
            row = rows[r]
            for ha, xa in v.terms.items():
                shift, xa = ha * dim, sign * xa
                for kb, xb in b_row:
                    key = kb + shift
                    row[key] = row.get(key, 0) + xa * xb
    keys, cells = [], []
    for r, row in rows.items():
        by_col: dict[int, dict[int, int]] = {}
        for key, x in row.items():
            if x:
                h, c = divmod(key, dim)
                cell = by_col.get(c)
                if cell is None:
                    by_col[c] = {h: x}
                else:
                    cell[h] = x
        keys.extend((r, c) for c in by_col)
        cells.extend(by_col.values())
    return SparseMatrix._trusted(dim, dict(zip(keys, from_terms(cells))))


def _check_dim(dim: int, m: SparseMatrix) -> None:
    if m.dim != dim:
        raise ValueError(f"dimension mismatch {dim} vs {m.dim}")
