"""Exact polynomials in one variable over ``Fraction``, with only the
operations the closed forms use: ``+``, ``-`` and ``*`` with a Poly or a
rational, ``/`` by a rational and ``**`` by an integer >= 0.  A float operand
is refused, so nothing is ever rounded."""

from fractions import Fraction
from numbers import Rational


class Poly:
    """``sum(coef[k] x^k)``: ``Fraction`` coefficients, lowest degree first,
    trailing zeros dropped (the zero polynomial keeps one, ``(0,)``)."""

    __slots__ = ("coef",)

    def __init__(self, coef):
        coef = [Fraction(c) for c in coef] or [Fraction(0)]
        while len(coef) > 1 and not coef[-1]:
            coef.pop()
        self.coef = tuple(coef)

    def __eq__(self, other):
        return isinstance(other, (Poly, Rational)) and self.coef == _coef(other)

    def __neg__(self):
        return Poly([-c for c in self.coef])

    def __add__(self, other):
        a, b = sorted((self.coef, _coef(other)), key=len)
        return Poly([x + y for x, y in zip(a, b)] + list(b[len(a):]))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        b = _coef(other)
        out = [Fraction(0)] * (len(self.coef) + len(b) - 1)
        for i, x in enumerate(self.coef):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __truediv__(self, other):
        return self * Fraction(1, other)  # refuses anything but a rational

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"a Poly power needs an exponent >= 0, got {n}")
        out = Poly((1,))
        for _ in range(n):
            out *= self
        return out


def _coef(x) -> tuple:
    """The coefficients of a Poly, or of a rational as a constant."""
    if not isinstance(x, (Poly, Rational)):
        raise TypeError(f"a Poly combines with a Poly or a rational, not {type(x).__name__}")
    return x.coef if isinstance(x, Poly) else (Fraction(x),)
