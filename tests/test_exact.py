import math
from fractions import Fraction

import pytest

from nbrw.exact import ExactValue, exponent_sign, factorize, geometric_mean


def test_factorize():
    assert factorize(1) == {}
    assert factorize(2) == {2: 1}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(97) == {97: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_multiplication_adds_exponents():
    a = ExactValue.from_integer(6)
    b = ExactValue.from_integer(10)
    assert (a * b) == ExactValue.from_integer(60)
    assert (a / a).is_one()


def test_rational_powers():
    four = ExactValue.from_integer(4)
    assert four ** Fraction(1, 2) == ExactValue.from_integer(2)
    assert four.nth_root(2) == ExactValue.from_integer(2)
    assert (four ** 0).is_one()


def test_equality_is_exact():
    # 2^(3/5) != 2^(2/3) even though the floats are close-ish
    a = ExactValue.from_integer(2) ** Fraction(3, 5)
    b = ExactValue.from_integer(2) ** Fraction(2, 3)
    assert a != b
    assert a < b
    # (2*2)^(1/2) = 2^1
    assert ExactValue.from_integer(4) ** Fraction(1, 2) == ExactValue.from_integer(2)


def test_comparisons_cross_primes():
    # 2^(1/2) vs 3^(1/3): 2^3 = 8 < 9 = 3^2
    a = ExactValue.from_integer(2) ** Fraction(1, 2)
    b = ExactValue.from_integer(3) ** Fraction(1, 3)
    assert a < b
    assert b > a
    assert a <= a and a >= a


def test_large_exponent_comparison():
    # needs big-integer cross multiplication, not floats
    a = ExactValue.from_integer(2) ** Fraction(1000, 999)
    b = ExactValue.from_integer(2) ** Fraction(1001, 1000)
    assert b < a


def test_float_and_log2():
    v = ExactValue.from_integer(2) ** Fraction(3, 5)
    assert abs(float(v) - 2 ** 0.6) < 1e-14
    assert abs(v.log2() - 0.6) < 1e-14


def test_as_pairs_sorted_lowest_terms():
    v = ExactValue.from_integer(12) ** Fraction(2, 4)
    assert v.as_pairs() == [[2, 1, 1], [3, 1, 2]]


def test_geometric_mean():
    values = [ExactValue.from_integer(2), ExactValue.from_integer(8)]
    assert geometric_mean(values) == ExactValue.from_integer(4)
    with pytest.raises(ValueError):
        geometric_mean([])


def test_exponent_sign_past_float_resolution():
    # 630138897 / 397573379, a continued-fraction convergent of log2(3),
    # exceeds it by 3.8e-19, so 2**630138897 > 3**397573379 (ln of the
    # ratio 1.06e-10), although the float sum of the logarithms says the
    # opposite
    p, q = 630138897, 397573379
    assert q * math.log(3) - p * math.log(2) > 0
    assert exponent_sign((2, 3), (p, -q)) == 1
    assert exponent_sign((2, 3), (-p, q)) == -1
    assert ExactValue({2: Fraction(p, q)}) > ExactValue.from_integer(3)
    # a later convergent, 2**8573543875303 > 3**5409303924479 (ln of the
    # ratio 6.6e-14), is not settled at 20 significant digits either
    assert exponent_sign((2, 3), (8573543875303, -5409303924479)) == 1
    assert exponent_sign((2, 3), (0, 0)) == 0
    assert exponent_sign((2, 3, 5), (4, 0, 1)) == 1
