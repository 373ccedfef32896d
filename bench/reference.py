"""Fixed reference loops that measure how fast the machine is right now.

The machines this benchmark runs on share their cores with other
tenants, and a repetition can run up to twice as slow in one minute as
in the next.  So `run.py` times a fixed loop of the same kind of work as
the workload between workers, and reports times scaled to a machine on
which that loop takes NOMINAL_S seconds.  The loops belong to the
benchmark, not to asep2, so both commits of a comparison run the same
ones.  They run in the parent process and leave the worker's memory
untouched.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.2


def rational_loop() -> float:
    """Rational arithmetic and dict updates in the interpreter, like asep2's exact layers."""
    acc: dict[int, Fraction] = {}
    total = Fraction(0)
    t0 = time.perf_counter()
    for i in range(1, 11_000):
        term = Fraction(i % 7 + 1, i) * Fraction(3, i % 5 + 2)
        acc[i % 61] = acc.get(i % 61, 0) + term
        total += term
    elapsed = time.perf_counter() - t0
    if not total:
        raise ArithmeticError("reference sum vanished")
    return elapsed


def dense_matmul() -> float:
    """Dense float products of the size `evolve` runs on (dim 560)."""
    a = np.full((560, 560), 1.0 / 560)
    b = np.eye(560)
    t0 = time.perf_counter()
    for _ in range(20):
        b = a @ b
    elapsed = time.perf_counter() - t0
    if not np.isfinite(b).all():
        raise ArithmeticError("reference product overflowed")
    return elapsed

