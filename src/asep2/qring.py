"""Exact arithmetic in the Laurent-polynomial ring Z[q**(1/2), q**(-1/2)].

Every symbolic identity in this package (commutators, detailed balance,
duality intertwining, partition-function identities) is decided in this
ring: coefficients are arbitrary-precision integers and equality means
identically equal polynomials, never a numerical tolerance.  The ring
takes no quotient: the Gaussian trinomials are built by the q-Pascal
rule from shifts and additions, and the package's one exact division is
`sparse.SparseMatrix.exact_quotient`.

The exponent grid is half-integer because the diagonal Cartan-type
operators q**(-n/2) need half steps; all other objects live on the even
sublattice.  Internally an exponent is an integer count of half-steps,
i.e. the key ``h`` stands for q**(h/2).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.const(value)
    return None


class LaurentPoly:
    """A Laurent polynomial in q**(1/2) with integer coefficients.

    Instances are immutable; all arithmetic returns new objects.  ``int``
    scalars coerce to constants in mixed expressions, so ``poly == 1`` and
    ``2 * poly`` behave as expected.  A coefficient of any other type
    raises TypeError.
    """

    __slots__ = ("_c",)

    def __init__(self, half_coeffs=None):
        c = {}
        if half_coeffs:
            for h, v in half_coeffs.items():
                if not isinstance(v, int):
                    raise TypeError(f"coefficient {v!r} is not an int")
                if v:
                    c[int(h)] = v
        self._c = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, value) -> "LaurentPoly":
        return cls({0: value})

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentPoly":
        """The monomial q**exponent for integer exponent."""
        return cls({2 * exponent: 1})

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[int, int]:
        """The half-exponent -> coefficient map, not copied: read, never mutate."""
        return self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c = dict(self._c)
        for h, v in other._c.items():
            s = c.get(h, 0) + v
            if s:
                c[h] = s
            elif h in c:
                del c[h]
        return from_terms(c)

    __radd__ = __add__

    def __neg__(self):
        return from_terms({h: -v for h, v in self._c.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c = {}
        for ha, va in self._c.items():
            for hb, vb in other._c.items():
                h = ha + hb
                s = c.get(h, 0) + va * vb
                if s:
                    c[h] = s
                elif h in c:
                    del c[h]
        return from_terms(c)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    # -- evaluation ---------------------------------------------------

    def eval(self, q0: float) -> float:
        """Substitute a positive numeric q0."""
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        return float(sum(v * q0 ** (h / 2) for h, v in self._c.items()))

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for h in sorted(self._c):
            parts.append(f"{self._c[h]}*q^{Fraction(h, 2)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({str(self)!r})"


def from_terms(half_coeffs: dict[int, int]) -> LaurentPoly:
    """Trusted constructor: the map's keys are ints and its coefficients
    nonzero ints, and the polynomial takes ownership of it.  Arithmetic
    results and the entries sparse matrices read back from their term
    arrays are built this way."""
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = half_coeffs
    return out


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


@lru_cache(maxsize=None)
def q_number(n: int) -> LaurentPoly:
    """The symmetric q-integer (q**n - q**-n)/(q - q**-1).

    Expands to sum_{k=0}^{n-1} q**(2k-n+1) for n >= 1, is 0 for n = 0,
    and odd in n, so negative arguments are allowed.
    """
    if n < 0:
        return -q_number(-n)
    return LaurentPoly({2 * (2 * k - n + 1): 1 for k in range(n)})


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    if n < 0:
        raise ValueError("q-factorial needs n >= 0")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_number(n)


@lru_cache(maxsize=None)
def q_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial [n]!/([k]![n-k]!), 0 off 0 <= k <= n, by the
    q-Pascal rule [n; k] = q**-k [n-1; k] + q**(n-k) [n-1; k-1]: shifts
    and additions only (cached: a LaurentPoly is immutable)."""
    if k < 0 or k > n:
        return ZERO
    if k == 0 or k == n:
        return ONE
    kept, taken = q_binomial(n - 1, k).terms, q_binomial(n - 1, k - 1).terms
    return from_terms({h - 2 * k: v for h, v in kept.items()}) + from_terms(
        {h + 2 * (n - k): v for h, v in taken.items()}
    )


@lru_cache(maxsize=None)
def q_multinomial(K: int, N: int, M: int) -> LaurentPoly:
    """Gaussian trinomial [K]!/([N]![M]![K-N-M]!) = [K; N] [K-N; M]
    (cached, like q_binomial)."""
    if N < 0 or M < 0 or N + M > K:
        raise ValueError(f"need N,M >= 0 and N+M <= K, got N={N}, M={M}, K={K}")
    return q_binomial(K, N) * q_binomial(K - N, M)

