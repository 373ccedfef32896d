import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asep2.generator import ModelParams
from asep2.measures import _fugacities
from asep2.qring import (
    LaurentPoly,
    q_binomial,
    q_factorial,
    q_multinomial,
    q_number,
)

ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)


def poly_strategy(max_terms=5, max_exp=8):
    coeff = st.integers(min_value=-5, max_value=5)
    return st.dictionaries(
        st.integers(min_value=-max_exp, max_value=max_exp), coeff, max_size=max_terms
    ).map(LaurentPoly)


class TestQNumber:
    def test_zero(self):
        assert q_number(0) == LaurentPoly.zero()

    def test_two(self):
        assert q_number(2) == Q + QINV

    def test_three(self):
        assert q_number(3) == LaurentPoly.q_power(2) + 1 + LaurentPoly.q_power(-2)

    def test_odd_in_n(self):
        for n in range(1, 8):
            assert q_number(-n) == -q_number(n)

    def test_value_at_one(self):
        for n in range(13):
            assert q_number(n).eval(1.0) == n


class TestQFactorial:
    def test_empty_product(self):
        assert q_factorial(0) == ONE

    def test_two(self):
        assert q_factorial(2) == Q + QINV

    def test_three(self):
        assert q_factorial(3) == (Q + QINV) * (LaurentPoly.q_power(2) + 1 + LaurentPoly.q_power(-2))


class TestQMultinomial:
    def test_empty(self):
        assert q_multinomial(5, 0, 0) == ONE
        assert q_multinomial(5, 5, 0) == ONE

    def test_binomial_two_one(self):
        assert q_multinomial(2, 1, 0) == Q + QINV

    def test_trinomial_two_one_one(self):
        assert q_multinomial(2, 1, 1) == Q + QINV

    def test_symmetry(self):
        for K in range(9):
            for N in range(K + 1):
                assert q_multinomial(K, N, 0) == q_multinomial(K, K - N, 0)

    def test_pascal_factorization(self):
        # the sector partition function factorises over the two species in
        # either order: q_multinomial chooses the N sites of A first, and
        # choosing the M sites of B first gives the same polynomial
        for K in range(9):
            for N in range(K + 1):
                for M in range(K - N + 1):
                    assert q_multinomial(K, N, M) == q_binomial(K, M) * q_binomial(K - M, N)

    def test_invalid(self):
        with pytest.raises(ValueError):
            q_multinomial(2, 3, 0)
        with pytest.raises(ValueError):
            q_multinomial(2, 2, 1)


def trinomials(K_max=12):
    """Every (K, N, M) with N + M <= K <= K_max."""
    return [
        (K, N, M) for K in range(K_max + 1) for N in range(K + 1) for M in range(K - N + 1)
    ]


class TestTrinomialOracles:
    # the q-Pascal trinomials against oracles that take no q-Pascal step

    def test_coefficient_sum_is_multinomial(self):
        # at q = 1 the trinomial counts the sector's configurations
        cases = trinomials() + [(38, 2, 1), (38, 12, 13), (38, 19, 19)]
        for K, N, M in cases:
            total = sum(q_multinomial(K, N, M).terms.values())
            assert total == math.comb(K, N) * math.comb(K - N, M), (K, N, M)

    def test_factorial_formula(self):
        # [K; N, M] [N]! [M]! [K-N-M]! = [K]!, by cross-multiplication
        for K, N, M in trinomials():
            product = q_factorial(N) * q_factorial(M) * q_factorial(K - N - M)
            assert q_multinomial(K, N, M) * product == q_factorial(K), (K, N, M)

    def test_species_swap(self):
        for K, N, M in trinomials():
            assert q_multinomial(K, N, M) == q_multinomial(K, M, N), (K, N, M)

    def test_palindromic(self):
        # unchanged by q -> 1/q, i.e. by h -> -h
        for K, N, M in trinomials():
            terms = q_multinomial(K, N, M).terms
            assert {-h: v for h, v in terms.items()} == terms, (K, N, M)

    def test_binomial_symmetry(self):
        for n in range(13):
            for k in range(n + 1):
                assert q_binomial(n, k) == q_binomial(n, n - k), (n, k)

    def test_binomial_zero_off_range(self):
        for n, k in [(3, -1), (3, 4), (0, 1), (-1, 0)]:
            assert q_binomial(n, k) == LaurentPoly.zero()


class TestEval:
    def test_symmetric_pair(self):
        assert (Q + QINV).eval(1.0) == pytest.approx(2.0)

    def test_three_at_two(self):
        assert q_number(3).eval(2.0) == pytest.approx(5.25)

    def test_zero(self):
        assert LaurentPoly.zero().eval(3.7) == 0.0

    def test_half_steps(self):
        assert LaurentPoly({1: 1}).eval(4.0) == pytest.approx(2.0)


class TestSerialization:
    def test_sorted_terms(self):
        assert str(Q + QINV) == "1*q^-1 + 1*q^1"

    def test_zero(self):
        assert str(LaurentPoly.zero()) == "0"

    def test_half_exponent(self):
        assert str(LaurentPoly({-1: 1})) == "1*q^-1/2"


class TestCoefficients:
    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(2), 0.5, 1.0])
    def test_non_int_rejected(self, value):
        with pytest.raises(TypeError):
            LaurentPoly({0: value})
        with pytest.raises(TypeError):
            LaurentPoly.const(value)
        with pytest.raises(TypeError):
            Q * value


class TestRingAxioms:
    @settings(deadline=None)
    @given(poly_strategy(), poly_strategy(), poly_strategy())
    def test_commutative_associative(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(poly_strategy())
    def test_additive_inverse(self, a):
        assert a - a == LaurentPoly.zero()


class TestRogersSzego:
    """The normaliser y of `measures._fugacities`: the bivariate
    Rogers-Szego polynomial sum_{N,M} e^(nu N + mu M) [2L; N, M] at q0,
    unshifted where no chemical potential is positive."""

    @staticmethod
    def y(L, nu, mu, q0):
        # rates with sqrt(r / l) = q0
        return _fugacities(nu, mu, ModelParams(L, Fraction(q0) ** 2, Fraction(1)))[1]

    def test_x_at_one(self):
        # one species at zero fugacity: the 2^(2L) sets of sites of the other
        assert self.y(1, 0.0, -math.inf, 1) == 4.0
        assert self.y(1, -math.inf, 0.0, 1) == 4.0

    def test_y_limits(self):
        assert self.y(1, -1e3, -1e3, 2) == pytest.approx(1.0)

    def test_y_at_one(self):
        assert self.y(1, 0.0, 0.0, 1) == pytest.approx(9.0)

    def test_x_is_y_slice(self):
        # suppressing one species reduces the bivariate sum to the univariate
        # one, sum_K e^(alpha*K) [4 choose K] at q0; the shift 2L alpha of
        # the fugacities divides it out
        q0 = 2
        univariate = sum(
            math.exp(0.3 * k) * q_multinomial(4, k, 0).eval(q0) for k in range(5)
        ) / math.exp(4 * 0.3)
        assert self.y(2, 0.3, -math.inf, q0) == pytest.approx(univariate)
        assert self.y(2, -math.inf, 0.3, q0) == pytest.approx(univariate)
        assert self.y(2, 0.3, -1e3, q0) == pytest.approx(univariate)
