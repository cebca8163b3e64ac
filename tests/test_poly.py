"""The exact polynomial type the tau1 derivation runs on."""

from fractions import Fraction as F

import pytest

from coeffsharp._poly import Poly

X = Poly((0, 1))


def exact(p):
    return all(type(c) is F for c in p.coef)


def test_every_result_is_exact():
    p = 2 * X ** 3 - X / 3 + F(1, 2)
    results = (p, -p, p + 1, 1 + p, p - X, 1 - p, p * p, F(3, 4) * p, p / F(2, 7), p ** 0)
    assert all(exact(r) for r in results)
    assert p.coef == (F(1, 2), F(-1, 3), F(0), F(2))
    assert (p * p).coef[-1] == 4


def test_cancellation_compares_equal_and_drops_trailing_zeros():
    assert (X + 1) * (X - 1) - X ** 2 == Poly((-1,)) == -1
    assert X - X == Poly(()) == Poly((0, 0)) == 0
    assert (X - X).coef == (F(0),)
    assert (X ** 2 + X) - X ** 2 == X
    assert 0 * X == 0 and X * 0 == 0
    assert X != X + 1 and X != 1 and X != "x"


def test_division_by_a_rational_and_power_zero():
    assert (3 * X + 1) / 3 == X + F(1, 3)
    assert ((3 * X + 1) / 3).coef == (F(1, 3), F(1))
    assert X ** 0 == 1 and (X - X) ** 0 == 1
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1


@pytest.mark.parametrize("op", [
    lambda: X + 0.5, lambda: 0.5 * X, lambda: X / 0.5, lambda: X / X, lambda: X - 1j,
])
def test_a_float_or_polynomial_divisor_is_refused(op):
    with pytest.raises(TypeError):
        op()


def test_a_negative_power_or_a_zero_divisor_is_refused():
    with pytest.raises(ValueError, match="exponent >= 0"):
        X ** -1
    with pytest.raises(ZeroDivisionError):
        X / 0
