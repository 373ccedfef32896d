"""Exact arithmetic in the Laurent-polynomial ring Q[q**(1/2), q**(-1/2)].

Every symbolic identity in this package (commutators, detailed balance,
duality intertwining, partition-function identities) is decided in this
ring: coefficients are arbitrary-precision rationals and equality means
identically equal polynomials, never a numerical tolerance.

The exponent grid is half-integer because the diagonal Cartan-type
operators q**(-n/2) need half steps; all other objects live on the even
sublattice.  Internally an exponent is an integer count of half-steps,
i.e. the key ``h`` stands for q**(h/2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class NonIntegralQuotient(ArithmeticError):
    """A polynomial quotient that must be exact left a remainder."""


def _coerce(value):
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return LaurentPoly.const(value)
    return None


class LaurentPoly:
    """A Laurent polynomial in q**(1/2) with rational coefficients.

    Instances are immutable; all arithmetic returns new objects.  ``int``
    and ``Fraction`` scalars coerce to constants in mixed expressions, so
    ``poly == 1`` and ``2 * poly`` behave as expected.
    """

    __slots__ = ("_c",)

    def __init__(self, half_coeffs=None):
        c = {}
        if half_coeffs:
            for h, v in half_coeffs.items():
                v = Fraction(v)
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
        return cls({0: Fraction(value)})

    @classmethod
    def q_power(cls, exponent: int) -> "LaurentPoly":
        """The monomial q**exponent for integer exponent."""
        return cls({2 * exponent: 1})

    @classmethod
    def q_half_power(cls, half_steps: int) -> "LaurentPoly":
        """The monomial q**(half_steps/2)."""
        return cls({half_steps: 1})

    @classmethod
    def monomial(cls, coeff, half_steps: int) -> "LaurentPoly":
        return cls({half_steps: Fraction(coeff)})

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def is_monomial(self) -> bool:
        return len(self._c) == 1

    def _deg(self) -> int:
        return max(self._c)

    def _val(self) -> int:
        return min(self._c)

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
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {h: -v for h, v in self._c.items()}
        return out

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
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return exact_div(LaurentPoly.one(), self ** (-n))
        out = LaurentPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def inverse(self) -> "LaurentPoly":
        """Exact ring inverse; only monomials are units."""
        return exact_div(LaurentPoly.one(), self)

    # -- evaluation ---------------------------------------------------

    def eval(self, q0: float) -> float:
        """Substitute a positive numeric q0."""
        if q0 <= 0:
            raise ValueError("q0 must be positive")
        return float(sum(float(v) * q0 ** (h / 2) for h, v in self._c.items()))

    def at_one(self) -> Fraction:
        """Exact value at q = 1 (the sum of coefficients)."""
        return sum(self._c.values(), Fraction(0))

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


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


def exact_div(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a/b in the ring.

    Long division by the leading term; a nonzero remainder raises
    NonIntegralQuotient, which always signals a bug in the caller: every
    quotient this package takes (q-multinomials, divided powers, the
    sum-rule constants) is exact whenever the surrounding identities hold.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ZERO
    low = a._val() - b._val()
    deg_b = b._deg()
    lead_b = b._c[deg_b]
    rem = dict(a._c)
    quot = {}
    while rem:
        deg_r = max(rem)
        h = deg_r - deg_b
        if h < low:
            raise NonIntegralQuotient(f"({a}) is not divisible by ({b})")
        coeff = rem[deg_r] / lead_b
        quot[h] = coeff
        for hb, vb in b._c.items():
            k = h + hb
            s = rem.get(k, 0) - coeff * vb
            if s:
                rem[k] = s
            elif k in rem:
                del rem[k]
    return LaurentPoly(quot)


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


def q_binomial(K: int, N: int) -> LaurentPoly:
    """Gaussian binomial [K]!/([N]![K-N]!), exact in the ring."""
    if not 0 <= N <= K:
        raise ValueError(f"need 0 <= N <= K, got N={N}, K={K}")
    return exact_div(q_factorial(K), q_factorial(N) * q_factorial(K - N))


def q_multinomial(K: int, N: int, M: int) -> LaurentPoly:
    """Gaussian trinomial [K]!/([N]![M]![K-N-M]!), exact in the ring."""
    if N < 0 or M < 0 or N + M > K:
        raise ValueError(f"need N,M >= 0 and N+M <= K, got N={N}, M={M}, K={K}")
    den = q_factorial(N) * q_factorial(M) * q_factorial(K - N - M)
    return exact_div(q_factorial(K), den)


def _exp_or_zero(weight: float, count: int) -> float:
    # count == 0 keeps the term alive even for weight = -inf
    return 1.0 if count == 0 else math.exp(weight * count)


def rogers_szego_x(two_l: int, alpha: float, q0: float) -> float:
    """Univariate Rogers-Szego polynomial sum_K e^(alpha*K) C_{2L}(K) at q0."""
    if two_l < 0:
        raise ValueError("lattice size must be nonnegative")
    return sum(
        _exp_or_zero(alpha, k) * q_binomial(two_l, k).eval(q0)
        for k in range(two_l + 1)
    )


def rogers_szego_y(two_l: int, nu: float, mu: float, q0: float) -> float:
    """Bivariate Rogers-Szego polynomial sum_{N,M} e^(nu*N+mu*M) C_{2L}(N,M) at q0."""
    if two_l < 0:
        raise ValueError("lattice size must be nonnegative")
    total = 0.0
    for n in range(two_l + 1):
        for m in range(two_l - n + 1):
            total += (
                _exp_or_zero(nu, n)
                * _exp_or_zero(mu, m)
                * q_multinomial(two_l, n, m).eval(q0)
            )
    return total
