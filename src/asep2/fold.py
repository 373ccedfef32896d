"""Dense products of symmetric matrices for `dynamics.evolve`, whole or
folded over an involution.

A product known to be symmetric is formed as its upper triangle, one
gemm per row panel, and mirrored (`symmetric_product`).  A symmetric n x n
matrix S that commutes with an involution J is fixed by its blocks over
J's orbits (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  With f
fixed states and m pairs (l, Jl) (`orbits`), they are A = S_ff, B = S_fl,
X = S_ll and Y = S_l,Jl, and the fold of S is one (f + m) x n array: S's
rows of the fixed and low states, its columns in the order fixed, low,
high, so [[A, B, B], [B^T, X, Y]] (`fill`).  Sums and products of such
matrices commute with J too, and stay folded: a square (`square`) is the
syrk of the fold, which holds A A^T + 2 B B^T, A B + B (X + Y) and
X X^T + Y Y^T + B^T B, and the half-size gemm XY for Y's block
XY + (XY)^T + B^T B, about 0.275 n^3 against 0.6 n^3 for the syrk of S
(a gemm counted as n^3); a product (`product`) is two symmetric half
products, about 0.4 n^3 against 0.8 n^3.  Every sum adds the products'
terms, so nonnegative factors give nonnegative entries (an even/odd split
X +- Y would take a quarter of the work but subtracts).  With no pairs
the fold is S, a square is one syrk and a product one
`symmetric_product`.  `unfold` forms the whole matrix, scaled as
D E D^-1 for a diagonal D.
"""

from __future__ import annotations

import numpy as np

# a symmetric product formed as its upper triangle, one gemm per row
# panel of PANELS, and mirrored (`symmetric_product`): 0.80-0.81 of a
# gemm at dim 420-560, 0.85 at 360, 0.90-0.94 at 240-280, about even at
# 168-200 and 2.0 at 90 (one thread, medians of interleaved runs); below
# PANEL_MIN_DIM it is one gemm, and `dynamics.evolve` does not fold
PANELS = 4
PANEL_MIN_DIM = 200
# `unfold` forms a kernel with pairs UNFOLD_ROWS rows at a time, so each
# block is gathered, scaled twice and stored while it is in cache, and its
# temporaries are UNFOLD_ROWS rows: 0.92-0.96 ms against 1.51-1.57 ms for
# two scatters and two full passes at L = 4, (N, M) = (3, 3), dim 560
# (one thread, medians of 200 calls).  Without pairs the two full passes
# stay: in blocks they took 2-27% longer at dim 30 to 1000
UNFOLD_ROWS = 64


def symmetric_product(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """a @ b into out, for a product known to be symmetric: a and b are
    polynomials in one symmetric matrix, or n rows of one and n columns
    of another whose n x n product is a symmetric block of theirs
    (`product`).  From PANEL_MIN_DIM on, only the upper triangle is
    formed, one gemm per row panel of PANELS, and the lower triangle is
    copied from it, so the result is exactly symmetric; below it, one
    plain gemm."""
    n = a.shape[0]
    if n < PANEL_MIN_DIM:
        return np.matmul(a, b, out=out)
    edges = [n * i // PANELS for i in range(PANELS + 1)]
    below = np.tri(-(-n // PANELS), k=-1, dtype=bool)  # a panel's strict lower triangle
    for lo, hi in zip(edges, edges[1:]):
        np.matmul(a[lo:hi], b[:, lo:], out=out[lo:hi, lo:])
        out[lo:hi, :lo] = out[:lo, lo:hi].T
        block = out[lo:hi, lo:hi]
        np.copyto(block, block.T, where=below[: hi - lo, : hi - lo])
    return out


def orbits(n: int, j: np.ndarray | None = None):
    """(fixed, low, high) of an involution j of range(n): the fixed states,
    and the pairs low[i] < high[i] = j[low[i]], each ascending.  With no j
    every state is fixed."""
    every = np.arange(n)
    if j is None:
        return every, every[:0], every[:0]
    low = np.flatnonzero(j > every)
    return np.flatnonzero(j == every), low, j[low]


def fill(n: int, orbits, row, col, values, diagonal) -> np.ndarray:
    """The fold of the symmetric n x n matrix with off-diagonal terms
    (row, col, values) and the given diagonal, which commutes with the
    involution of `orbits`: its terms in the rows of the fixed and low
    states, ranked by the orbits."""
    top = n - len(orbits[1])
    if top < n:
        rank = np.empty(n, np.intp)
        rank[np.concatenate(orbits)] = np.arange(n)
        on = rank[row] < top
        row, col, values = rank[row[on]], rank[col[on]], values[on]
        diagonal = diagonal[np.concatenate(orbits[:2])]
    out = np.zeros((top, n))
    out[row, col] = values
    out.flat[:: n + 1] = diagonal
    return out


def square(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The square of the fold m into the fold `out`: its rows [f, l] are
    m m^T, one syrk, and its block Y is XY + (XY)^T + B^T B.  With no
    pairs it is the one syrk m m^T."""
    top = m.shape[0]
    if top == m.shape[1]:
        return np.matmul(m, m.T, out=out)
    f = 2 * top - m.shape[1]
    np.matmul(m, m.T, out=out[:, :top])
    bt = m[f:, :f]
    y = np.matmul(m[f:, f:top], m[f:, top:], out=out[f:, top:])
    y += y.T
    y += bt @ bt.T
    out[:f, top:] = out[:f, f:top]
    return out


def product(m: np.ndarray, n: np.ndarray, out: np.ndarray) -> np.ndarray:
    """m n into the fold `out`, for folds m and n whose product is
    symmetric (polynomials in one symmetric matrix): its rows [f, l] are
    m times the columns [f, l] of n, which are n^T, and its block Y is
    m's rows l times n's rows l with the columns of each pair exchanged.
    Both are symmetric and formed by `symmetric_product`.  With no pairs
    the columns of n are n itself: one `symmetric_product`."""
    top, k = m.shape[0], m.shape[1] - m.shape[0]
    if not k:
        return symmetric_product(m, n, out)
    f = top - k
    symmetric_product(m, n.T, out[:, :top])
    rows = n[f:]
    exchanged = np.concatenate([rows[:, :f], rows[:, top:], rows[:, f:top]], axis=1)
    symmetric_product(m[f:], exchanged.T, out[f:, top:])
    out[:f, top:] = out[:f, f:top]
    return out


def unfold(fold: np.ndarray, orbits, root: np.ndarray, spare=None) -> np.ndarray:
    """D E D^-1 for the fold of E and D = diag(root).  With pairs, the
    result is a new n x n array, formed UNFOLD_ROWS rows at a time: the
    rows of the fixed and low states are the fold's rows with its columns
    put back in state order, and a pair's high state's row is its low
    state's with the columns of each pair exchanged (E commutes with J);
    each block of rows is gathered, scaled and stored whole.  With none
    the fold is E, and the result is formed in `spare`, a spent array of
    its shape (a new one when None), in two whole-array passes."""
    fixed, low, high = orbits
    if not len(low):
        kernel = np.multiply(fold, root[:, None], out=spare)
        kernel /= root
        return kernel
    n = len(root)
    kernel = np.empty((n, n))
    cols = np.empty(n, np.intp)
    for states, rows, order in (
        (np.concatenate([fixed, low]), fold, np.concatenate(orbits)),
        (high, fold[len(fixed) :], np.concatenate([fixed, high, low])),
    ):
        cols[order] = np.arange(n)  # the fold column of each state's column
        for i in range(0, len(states), UNFOLD_ROWS):
            at = states[i : i + UNFOLD_ROWS]
            block = np.take(rows[i : i + UNFOLD_ROWS], cols, axis=1)
            block *= root[at, None]
            block /= root
            kernel[at] = block
    return kernel
