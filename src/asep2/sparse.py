"""Sparse square matrices over an exact or floating scalar ring.

Entries are plain scalars that support +, -, * and are false exactly
when zero: LaurentPoly in exact mode, float in numeric mode.  Zero
entries are never stored, so a matrix is identically zero in the ring
iff it stores nothing, which is what the identity checks test.  Storage is a coordinate hash map; the dump format
orders entries column-compressed, (col, row) ascending, so serialised
matrices are deterministic.

Matrices are treated as immutable once built.
"""

from __future__ import annotations

import numpy as np

from .qring import ONE, LaurentPoly


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

    def row(self, r: int) -> dict:
        return {c: v for (rr, c), v in self.entries.items() if rr == r}

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    __hash__ = None  # mutable container semantics; equality is by value

    # -- algebra ----------------------------------------------------------

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} vs {other.dim}")

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_dim(other)
        out = dict(self.entries)
        for key, v in other.entries.items():
            s = out.get(key)
            s = v if s is None else s + v
            if not s:
                out.pop(key, None)
            else:
                out[key] = s
        return SparseMatrix(self.dim, out)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self + (-other)

    def __neg__(self) -> "SparseMatrix":
        return SparseMatrix(self.dim, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar) -> "SparseMatrix":
        if not scalar:
            return SparseMatrix(self.dim, {})
        return SparseMatrix(self.dim, {k: scalar * v for k, v in self.entries.items()})

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        self._check_dim(other)
        rows_other: dict[int, dict] = {}
        for (r, c), v in other.entries.items():
            rows_other.setdefault(r, {})[c] = v
        out: dict = {}
        for (r, k), va in self.entries.items():
            row = rows_other.get(k)
            if not row:
                continue
            for c, vb in row.items():
                key = (r, c)
                s = out.get(key)
                prod = va * vb
                s = prod if s is None else s + prod
                if not s:
                    out.pop(key, None)
                else:
                    out[key] = s
        return SparseMatrix(self.dim, out)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.dim, {(c, r): v for (r, c), v in self.entries.items()})

    def map_entries(self, fn) -> "SparseMatrix":
        return SparseMatrix(self.dim, {k: fn(v) for k, v in self.entries.items()})

    # -- conversion ---------------------------------------------------------

    def to_numpy(self, q0: float | None = None) -> np.ndarray:
        """Dense float array; exact entries need a numeric q0."""
        out = np.zeros((self.dim, self.dim))
        for (r, c), v in self.entries.items():
            if isinstance(v, LaurentPoly):
                if q0 is None:
                    raise ValueError("q0 required to evaluate exact entries")
                out[r, c] = v.eval(q0)
            else:
                out[r, c] = float(v)
        return out

    def __repr__(self):
        return f"SparseMatrix(dim={self.dim}, nnz={self.nnz})"


def commutator(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    return a @ b - b @ a
