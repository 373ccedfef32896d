"""Shared test helpers, and a reference generator, left count, duality
function and reversible weight independent of the package's occupation
tables."""

import itertools
import sys

import numpy as np

from asep2.generator import Ring
from asep2.lattice import A, B, VACANT
from asep2.qring import LaurentPoly
from asep2.sparse import SparseMatrix


def package_modules():
    """The imported modules of the asep2 package."""
    return [m for name, m in sys.modules.items() if name.partition(".")[0] == "asep2"]


def clear_caches():
    """Empty every `lru_cache` of the package, so an operator built before
    a monkeypatched fault, or under one, is not reused."""
    for module in package_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def dense(m) -> np.ndarray:
    """A float SparseMatrix as a dense array, entry [row, col]."""
    out = np.zeros((m.dim, m.dim))
    out[m.row, m.col] = m.coeff
    return out


def float_matrix(dim: int, entries: dict) -> SparseMatrix:
    """A float SparseMatrix from a {(row, col): float} map, by `from_arrays`."""
    keys = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
    values = np.array(list(entries.values()), dtype=np.float64)
    h = np.zeros(len(values), np.int64)
    return SparseMatrix.from_arrays(dim, keys[:, 0], keys[:, 1], h, values)


def summed_terms(row, col, h, coeff) -> dict:
    """{(row, col, h): coefficient} of a list of terms, each key's
    coefficients added one at a time in input order and zero sums
    dropped: the reference for `SparseMatrix.from_arrays`."""
    out = {}
    for key, x in zip(zip(row, col, h), coeff):
        out[key] = out[key] + x if key in out else x
    return {key: x for key, x in out.items() if x}


def stored_terms(m) -> dict:
    """{(row, col, h): coefficient} of a SparseMatrix's stored terms."""
    keys = zip(m.row.tolist(), m.col.tolist(), m.h.tolist())
    return dict(zip(keys, m.coeff.tolist()))


def evaluated(m, q0: float) -> SparseMatrix:
    """An exact SparseMatrix at q = q0, as a float one."""
    return float_matrix(m.dim, {rc: v.eval(q0) for rc, v in m.sorted_items()})


def matrix_row(m, r: int) -> dict:
    """Row r of a SparseMatrix as {col: value}, scanning every entry."""
    return {c: v for (rr, c), v in m.sorted_items() if rr == r}


def swapped(occ: tuple, i: int) -> tuple:
    """occ with the states at positions i and i + 1 exchanged."""
    out = list(occ)
    out[i], out[i + 1] = out[i + 1], out[i]
    return tuple(out)


def basis(L: int, sector=None) -> list[tuple]:
    """The occupation tuples of the full basis, or of sector (N, M), in
    basis order: site -L+1 is the least significant digit, so the order
    is that of the reversed tuples."""
    rows = itertools.product((A, VACANT, B), repeat=2 * L)
    if sector is not None:
        rows = (occ for occ in rows if (occ.count(A), occ.count(B)) == sector)
    return sorted(rows, key=lambda occ: occ[::-1])


# the bond states (s_k, s_k+1) that exchange at the right rate r and at
# the left rate l, spelled out from the paper's rules
RIGHT_PAIRS = ((A, VACANT), (VACANT, B), (A, B))
LEFT_PAIRS = ((VACANT, A), (B, VACANT), (B, A))


def pair_rates(p, ring) -> tuple:
    """(right, left): the rates r and l, or in exact mode q and 1/q."""
    if ring is Ring.EXACT:
        return LaurentPoly.q_power(1), LaurentPoly.q_power(-1)
    return float(p.r), float(p.ell)


def pair_rate(p, ring, s1: int, s2: int):
    """The rate at which the bond states (s1, s2) exchange, 0 if never."""
    right, left = pair_rates(p, ring)
    return right if (s1, s2) in RIGHT_PAIRS else left if (s1, s2) in LEFT_PAIRS else 0


def reference_generator(p, ring, rows: list[tuple]) -> SparseMatrix:
    """The generator on the basis `rows` by a loop over each row's bonds:
    H[target, source] = -rate, and on the diagonal n_right r + n_left l
    for the row's counts of right and left exchanges."""
    right, left = pair_rates(p, ring)
    index = {occ: i for i, occ in enumerate(rows)}
    entries = {}
    for src, occ in enumerate(rows):
        n_right = n_left = 0
        for i, pair in enumerate(zip(occ, occ[1:])):
            if pair in RIGHT_PAIRS:
                entries[(index[swapped(occ, i)], src)] = -right
                n_right += 1
            elif pair in LEFT_PAIRS:
                entries[(index[swapped(occ, i)], src)] = -left
                n_left += 1
        if n_right or n_left:
            entries[(src, src)] = n_right * right + n_left * left
    build = float_matrix if ring is Ring.FLOAT else SparseMatrix
    return build(len(rows), entries)


def coordinates(c) -> tuple[tuple, tuple]:
    """The sorted A sites x and B sites y of a Config."""
    labels = range(-c.L + 1, c.L + 1)
    return tuple(
        tuple(k for k, s in zip(labels, c.occ) if s == species) for species in (A, B)
    )


def count_left(occ, k: int, species: int) -> int:
    """Number of sites strictly left of site k holding `species`, by a
    slice of the occupation sequence: the reference for
    `lattice.left_counts`."""
    return occ[: k + len(occ) // 2 - 1].count(species)


def reference_q(z, eta) -> LaurentPoly:
    """Q_z(eta) for two Configs by a loop over z's particles: an A adds
    eta's A count left of its site minus the count right of it, a B the
    reverse, and the product is zero if eta does not hold z's particle."""
    e = 0
    for i, (s, held) in enumerate(zip(z.occ, eta.occ)):
        if s == VACANT:
            continue
        if held != s:
            return LaurentPoly.zero()
        left, right = eta.occ[:i].count(s), eta.occ[i + 1 :].count(s)
        e += left - right if s == A else right - left
    return LaurentPoly.q_power(e)


def pi_exponent(occ) -> int:
    """Exponent of the reversible q-power weight of one occupation
    sequence, by a loop over its sites: an A at site k adds 2k - 1 minus
    the B count to its left, a B at k adds the A count to its left minus
    (2k - 1)."""
    L = len(occ) // 2
    e = left_a = left_b = 0
    for i, s in enumerate(occ):
        odd = 2 * (i - L) + 1  # 2k - 1 at site k = i - L + 1
        if s == A:
            e += odd - left_b
            left_a += 1
        elif s == B:
            e += left_a - odd
            left_b += 1
    return e
