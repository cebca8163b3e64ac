"""Degree-capped formal power series over exact rationals or complex doubles.

A :class:`TruncatedSeries` stores the coefficients of ``z**0 .. z**N`` and
every operation truncates its result back to degree ``N`` (the smaller ``N``
when two orders meet).  A series is homogeneous in one scalar mode:

* ``"rational"`` -- ``fractions.Fraction`` coefficients, arithmetic is exact
  and no rounding ever happens;
* ``"complex"``  -- complex doubles, NaN/Inf are rejected at construction.

Series of different modes never combine.  All values are immutable; every
operation is a pure function.

The extremal functions are built by :func:`starlike_from_schwarz`, and the
final factor ``z`` is a shift of coefficients, not a series product.  In
rational mode the cost is two recurrences: a coupled one gives ``cosh
omega`` together with ``sinh omega`` (:func:`_cosh_sinh_rational`), and one
exponential takes the integrand's coefficients ``g_j = omega_j + C_j`` as its
weights, since the antiderivative would divide ``g_j`` by ``j`` only for the
exponential to multiply it by ``j`` again.  Complex mode runs three
:func:`exp_series` recurrences, two of them for ``cosh``.  The extremal
function driven by ``omega = z**n`` is zero outside the degrees ``1 + j n``,
and the series its recurrences run on outside the multiples of ``n``.  So
each recurrence forms its nonzero weights once and sums only the terms whose
two factors are both nonzero, in the order of the plain recurrence.  In
rational mode one kernel (:func:`_convolution_over_k`) sums them over the
integers: each term is a product of numerators over a product of
denominators, the terms are put over the lcm ``L`` of those products, and
the coefficient is the one ``Fraction`` of their integer sum over ``L k``,
reduced once instead of after every ``Fraction`` product, sum and quotient.
The results are those of the plain recurrence, bit for bit:

* in rational mode the arithmetic is exact, so a zero term changes nothing,
  and a reduced ``Fraction`` is canonical: the same value has the same
  numerator and denominator whichever way it was summed;
* in complex mode the accumulator starts at ``+0j`` and a sum of floats is
  ``-0.0`` only when both addends are, so no part of it is ever ``-0.0``; a
  zero factor times a finite one is ``+-0``, and adding that to the
  accumulator leaves it unchanged;
* a weight ``j a_j`` that overflows meets ``e_0 = 1`` at ``k = j``, a term
  never skipped, so ``e_j`` is not finite.  Up to the first non-finite
  coefficient every skipped term is a zero times a finite number and both
  routes agree; then both reject the result with the same ``ValueError``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number, Rational

RATIONAL = "rational"
COMPLEX = "complex"
_ZERO = Fraction(0)  # every zero coefficient the rational recurrences form

__all__ = [
    "RATIONAL",
    "COMPLEX",
    "TruncatedSeries",
    "series",
    "monomial",
    "antiderivative_over_t",
    "compose",
    "cosh_series",
    "divide_by_z",
    "exp_series",
    "extremal_function",
    "log_series",
    "series_div",
    "starlike_from_schwarz",
]


def _coerce(value, mode: str):
    if mode == RATIONAL:
        if isinstance(value, Rational):
            return Fraction(value)
        raise ValueError(
            f"rational-mode series cannot hold {value!r}; build the series in complex mode"
        )
    z = complex(value)
    if not cmath.isfinite(z):
        raise ValueError("complex-mode coefficients must be finite")
    return z


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series truncated at a fixed degree.

    ``coeffs[k]`` is the coefficient of ``z**k``; ``len(coeffs) == order + 1``.
    Use :func:`series` or :func:`monomial` to build instances from plain
    numbers.

    >>> f = series([1, 1]) * series([1, -1])
    >>> f.coeffs
    (Fraction(1, 1), Fraction(0, 1))
    """

    coeffs: tuple
    mode: str

    def __post_init__(self):
        if self.mode not in (RATIONAL, COMPLEX):
            raise ValueError(f"unknown scalar mode {self.mode!r}")
        if not self.coeffs:
            raise ValueError("a series needs at least the degree-0 coefficient")
        want = Fraction if self.mode == RATIONAL else complex
        for c in self.coeffs:
            if not isinstance(c, want):
                raise ValueError(f"{self.mode}-mode series holds foreign scalar {c!r}")
            if want is complex and not cmath.isfinite(c):  # inputs are checked in _coerce
                raise ValueError(f"complex-mode coefficient of z^{self.coeffs.index(c)} is not "
                                 "finite: the series overflows the float range")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def truncate(self, order: int) -> "TruncatedSeries":
        """Drop all coefficients above ``order``."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to {order}")
        return TruncatedSeries(self.coeffs[: order + 1], self.mode)

    def evaluate(self, z):
        """Horner evaluation of the truncated polynomial at a scalar point."""
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * z + c
        return acc

    # arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            _check_modes(self, other)
            n = min(self.order, other.order)
            return TruncatedSeries(
                tuple(a + b for a, b in zip(self.coeffs[: n + 1], other.coeffs[: n + 1])),
                self.mode,
            )
        if isinstance(other, Number):
            val = _coerce(other, self.mode)
            return TruncatedSeries((self.coeffs[0] + val,) + self.coeffs[1:], self.mode)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(tuple(-c for c in self.coeffs), self.mode)

    def __sub__(self, other):
        if isinstance(other, (TruncatedSeries, Number)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, Number):
            return (-self) + other
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            _check_modes(self, other)
            n = min(self.order, other.order)
            a, b = self.coeffs, other.coeffs
            out = []
            for k in range(n + 1):
                out.append(sum((a[i] * b[k - i] for i in range(k + 1)), _coerce(0, self.mode)))
            return TruncatedSeries(tuple(out), self.mode)
        if isinstance(other, Number):
            val = _coerce(other, self.mode)
            return TruncatedSeries(tuple(c * val for c in self.coeffs), self.mode)
        return NotImplemented

    __rmul__ = __mul__


def _check_modes(a: TruncatedSeries, b: TruncatedSeries):
    if a.mode != b.mode:
        raise ValueError(f"scalar modes differ: {a.mode} vs {b.mode}")


def series(values, order: int | None = None, mode: str | None = None) -> TruncatedSeries:
    """Build a series from plain numbers.

    The mode is inferred (rational unless a float/complex appears) when not
    given.  With ``order`` set, short coefficient lists pad with zeros and
    long ones truncate.
    """
    vals = list(values)
    if not vals and order is None:
        raise ValueError("empty coefficient list")
    if mode is None:
        mode = RATIONAL if all(isinstance(v, Rational) for v in vals) else COMPLEX
    if order is not None:
        if order < 0:
            raise ValueError("order must be >= 0")
        vals = vals[: order + 1] + [0] * (order + 1 - len(vals))
    return TruncatedSeries(tuple(_coerce(v, mode) for v in vals), mode)


def monomial(degree: int, order: int | None = None, mode: str = RATIONAL,
             coefficient=1) -> TruncatedSeries:
    """The series ``coefficient * z**degree`` truncated at ``order``."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if order is None:
        order = degree
    if order < degree:
        raise ValueError(f"order {order} cannot hold degree-{degree} monomial")
    vals = [0] * (order + 1)
    vals[degree] = coefficient
    return series(vals, mode=mode)


def compose(outer: TruncatedSeries, inner: TruncatedSeries) -> TruncatedSeries:
    """``outer(inner(z))`` truncated to the smaller order.

    The inner series must vanish at 0; composing at a unit is out of
    contract.  Evaluated by Horner's rule in the series ring.

    >>> compose(series([1, 1, 1]), monomial(1, 2)).coeffs
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))
    """
    _check_modes(outer, inner)
    if inner.coeffs[0] != 0:
        raise ValueError("composition requires the inner series to vanish at 0")
    n = min(outer.order, inner.order)
    o = outer.truncate(n)
    i = inner.truncate(n)
    acc = series([o.coeffs[n]], order=n, mode=outer.mode)
    for k in range(n - 1, -1, -1):
        acc = acc * i + o.coeffs[k]
    return acc


def exp_series(a: TruncatedSeries) -> TruncatedSeries:
    """``exp(a)`` for a series with zero constant term.

    Computed through the recurrence ``(exp a)' = a' * exp a`` with unit
    constant term, ``k e_k = sum_{j=1..k} (j a_j) e_{k-j}`` (Knuth, TAOCP
    vol. 2, 4.7), so rational mode stays exact.  The nonzero weights
    ``j a_j`` are formed once, in increasing ``j``; each ``e_k`` sums, in that
    order, only the terms with ``j <= k`` and ``e_{k-j} != 0``.  Complex mode
    accumulates them in a complex double; rational mode sums them as
    integers over one common denominator (:func:`_exp_rational`).  The
    module docstring shows why neither the skipped zero terms nor the integer
    sum changes any result.
    """
    if a.coeffs[0] != 0:
        raise ValueError("exp_series requires a zero constant term")
    terms = [(j, j * c) for j, c in enumerate(a.coeffs) if c]
    if a.mode == RATIONAL:
        return TruncatedSeries(_exp_rational(terms, a.order), RATIONAL)
    out = [1 + 0j]
    for k in range(1, a.order + 1):
        acc = 0j
        for j, w in terms:
            if j > k:
                break
            e = out[k - j]
            if e:
                acc += w * e
        out.append(acc / k)
    return TruncatedSeries(tuple(out), a.mode)


def _exp_rational(terms: list, order: int) -> tuple:
    """``e_0 .. e_order`` of :func:`exp_series` for the nonzero rational weights
    ``terms``, a list of ``(j, j a_j)``."""
    weights = [(j, w.numerator, w.denominator) for j, w in terms]
    nums, dens, out = [1], [1], [Fraction(1)]
    for k in range(1, order + 1):
        e = _convolution_over_k(weights, nums, dens, k)
        out.append(e)
        nums.append(e.numerator)
        dens.append(e.denominator)
    return tuple(out)


def _convolution_over_k(weights: list, nums: list, dens: list, k: int) -> Fraction:
    """``(sum_{j=1..k} w_j y_{k-j}) / k`` as one reduced ``Fraction``.

    ``weights`` lists the nonzero ``(j, numerator, denominator)`` of ``w`` in
    increasing ``j``; ``nums`` and ``dens`` hold those of ``y_0 .. y_{k-1}``.
    The terms whose ``y`` factor is zero are skipped; the others, ``n / d``
    each, are summed as integers over the lcm ``L`` of their denominators:
    ``Fraction(sum(n * (L // d)), L k)``.
    """
    ns, ds = [], []
    for j, wn, wd in weights:
        if j > k:
            break
        yn = nums[k - j]
        if yn:
            ns.append(wn * yn)
            ds.append(wd * dens[k - j])
    if not ds:
        return _ZERO
    lcm = math.lcm(*ds)
    return Fraction(sum([n * (lcm // d) for n, d in zip(ns, ds)]), lcm * k)


def log_series(a: TruncatedSeries) -> TruncatedSeries:
    """``log(a)`` for a series with constant term 1, via ``(log a)' = a'/a``."""
    if a.coeffs[0] != 1:
        raise ValueError("log_series requires constant term 1")
    n = a.order
    out = [_coerce(0, a.mode)]
    for k in range(1, n + 1):
        acc = _coerce(0, a.mode)
        for j in range(1, k):
            acc += j * out[j] * a.coeffs[k - j]
        out.append(a.coeffs[k] - acc / k)
    return TruncatedSeries(tuple(out), a.mode)


def cosh_series(a: TruncatedSeries) -> TruncatedSeries:
    """``cosh(a)`` for a series with zero constant term.

    Rational mode solves ``C' = a' S``, ``S' = a' C`` for ``C = cosh a`` and
    ``S = sinh a`` (:func:`_cosh_sinh_rational`); complex mode computes
    ``(exp(a) + exp(-a)) / 2``.
    """
    if a.coeffs[0] != 0:
        raise ValueError("cosh_series requires a zero constant term")
    if a.mode == RATIONAL:
        return TruncatedSeries(_cosh_sinh_rational(a.coeffs, a.order)[0], RATIONAL)
    return (exp_series(a) + exp_series(-a)) * 0.5


def _cosh_sinh_rational(a: tuple, order: int) -> tuple:
    """``(C, S)``, the coefficients ``0 .. order`` of ``cosh a`` and ``sinh a``
    for rational ``a`` with ``a_0 = 0``: ``k C_k = sum_j (j a_j) S_{k-j}`` and
    ``k S_k = sum_j (j a_j) C_{k-j}`` from ``C_0 = 1``, ``S_0 = 0`` (Brent and
    Kung, JACM 1978).  As zero terms are skipped, a ``C`` and ``S`` of
    disjoint supports, as for ``a = z**n``, cost one sum per degree."""
    weights = [(j, j * c.numerator, c.denominator) for j, c in enumerate(a[: order + 1]) if c]
    cn, cd, sn, sd = [1], [1], [0], [1]
    cosh, sinh = [Fraction(1)], [_ZERO]
    for k in range(1, order + 1):
        c = _convolution_over_k(weights, sn, sd, k)
        s = _convolution_over_k(weights, cn, cd, k)
        cosh.append(c)
        sinh.append(s)
        cn.append(c.numerator)
        cd.append(c.denominator)
        sn.append(s.numerator)
        sd.append(s.denominator)
    return tuple(cosh), tuple(sinh)


def antiderivative_over_t(a: TruncatedSeries) -> TruncatedSeries:
    """Integrate ``a(t)/t`` from 0: coefficient ``k`` is divided by ``k``.

    The constant term must vanish; a nonzero one would create a log
    singularity at the origin.  The order is preserved.
    """
    if a.coeffs[0] != 0:
        raise ValueError("antiderivative_over_t requires a zero constant term")
    out = [_coerce(0, a.mode)]
    for k in range(1, a.order + 1):
        out.append(a.coeffs[k] / k)
    return TruncatedSeries(tuple(out), a.mode)


def divide_by_z(a: TruncatedSeries) -> TruncatedSeries:
    """``a(z)/z`` for a series vanishing at 0; the order drops by one."""
    if a.coeffs[0] != 0:
        raise ValueError("divide_by_z requires a zero constant term")
    if a.order == 0:
        raise ValueError("cannot drop the only coefficient")
    return TruncatedSeries(a.coeffs[1:], a.mode)


def series_div(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """``a / b`` truncated to the smaller order; ``b`` must be a unit."""
    _check_modes(a, b)
    if b.coeffs[0] == 0:
        raise ValueError("series division requires a nonzero constant term in the divisor")
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        acc = a.coeffs[k]
        for j in range(1, k + 1):
            acc -= b.coeffs[j] * out[k - j]
        out.append(acc / b.coeffs[0])
    return TruncatedSeries(tuple(out), a.mode)


def starlike_from_schwarz(omega: TruncatedSeries, order: int) -> TruncatedSeries:
    """Solve ``z f'(z)/f(z) = omega(z) + cosh(omega(z))`` for ``f``.

    Returns ``f(z) = z * exp( integral of (omega(t) + cosh(omega(t)) - 1)/t )``
    truncated at ``order``.  ``omega`` is treated as a polynomial: missing
    high-degree coefficients count as zero.  The factor ``z`` is a shift of
    the exponential's coefficients by one degree, not a series product.

    In rational mode the integrand's coefficients ``g_j = omega_j + C_j`` are
    the weights ``j a_j`` of the exponential of its antiderivative ``a``, so
    :func:`_exp_rational` takes them as they are; after the shift it need
    not go past ``e_{order-1}``.
    """
    if omega.coeffs[0] != 0:
        raise ValueError("a Schwarz series must vanish at 0")
    if order < 0:
        raise ValueError("order must be >= 0")
    if omega.mode == RATIONAL:
        om = omega.coeffs[:order]  # the higher ones never reach e_{order-1}
        g = list(_cosh_sinh_rational(om, order - 1)[0])
        for j, w in enumerate(om):
            if w:
                g[j] += w
        e = _exp_rational([(j, x) for j, x in enumerate(g) if j and x], order - 1)
        return TruncatedSeries((_ZERO,) + e[:order], RATIONAL)  # at order 0 no e_k is kept
    om = series(omega.coeffs, order=order, mode=omega.mode)
    e = exp_series(antiderivative_over_t(om + cosh_series(om) - 1))
    return TruncatedSeries((0j,) + e.coeffs[:-1], COMPLEX)


def extremal_function(n: int, order: int) -> TruncatedSeries:
    """The bound-attaining function driven by ``omega(z) = z**n``, exactly.

    >>> extremal_function(2, 5).coeffs[3]
    Fraction(1, 2)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if order < n + 1:
        raise ValueError(f"order must be >= {n + 1} to show the first correction")
    return starlike_from_schwarz(monomial(n, order), order)
