"""Parameter triples for positive-real-part functions and their coefficients.

The first three Taylor coefficients of any function ``p`` with ``p(0) = 1``
and positive real part are reachable from a triple ``(tau1, tau2, tau3)``
with ``tau1 in [0, 1]`` and ``tau2, tau3`` in the closed unit disk:

    c1 = 2 tau1
    c2 = 2 tau1^2 + 2 (1 - tau1^2) tau2
    c3 = 2 tau1^3 + 4 (1 - tau1^2) tau1 tau2 - 2 (1 - tau1^2) tau1 tau2^2
         + 2 (1 - tau1^2) (1 - |tau2|^2) tau3

On each boundary stratum the representing function is a unique rational
map, built by one Schur recursion as a truncated series: exact over rational
triples, complex doubles otherwise (the three surd witnesses among them).
The bridge ``omega = (p-1)/(p+1)`` turns any such ``p`` into a Schwarz function.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number, Rational

from .exprs import _shown
from .series_engine import TruncatedSeries, series, series_div

TAU_BOUNDARY_TOL = 1e-12  # absorbs float rounding on |tau| = 1 only
COEFF_BOUND_TOL = 1e-9
# squared bounds on |tau2|, |tau3| and |c_k|, as a float and as its exact value:
# a rational |x|^2 is compared with the exact one, since it may overflow a float
_TAU_BOUND_SQ = ((1.0 + TAU_BOUNDARY_TOL) ** 2, Fraction((1.0 + TAU_BOUNDARY_TOL) ** 2))
_COEFF_BOUND_SQ = ((2.0 + COEFF_BOUND_TOL) ** 2, Fraction((2.0 + COEFF_BOUND_TOL) ** 2))

__all__ = [
    "CaratheodoryPoint",
    "SchwarzCoeffs",
    "c12",
    "c3_parts",
    "coeffs_from_point",
    "extremal_p_series",
    "schwarz_from_p",
    "mag_squared",
]


def mag_squared(x):
    """|x|^2 without a square root; exact for rational inputs."""
    if type(x) is Fraction:  # exact either way, but .real and .imag build Fractions
        return x * x
    return x.real * x.real + x.imag * x.imag


def _check_coordinate(name: str, val, bound: int, bound_sq: tuple) -> None:
    """Refuse a coordinate that is not a finite number with ``|val| <= bound``,
    the squared bound given as ``(float, exact Fraction)``: a rational is
    compared with the exact value, anything else with the float."""
    if not isinstance(val, Number):
        raise ValueError(f"{name} must be a number")
    if not isinstance(val, Rational) and not cmath.isfinite(val):
        raise ValueError(f"{name} must be finite, got {_shown(val)}")
    if not mag_squared(val) <= bound_sq[isinstance(val, Rational)]:
        raise ValueError(f"|{name}| must be <= {bound}, got {_shown(val)}")


@dataclass(frozen=True)
class CaratheodoryPoint:
    """Parameter triple (tau1, tau2, tau3); boundary membership allowed."""

    tau1: float
    tau2: complex
    tau3: complex

    def __post_init__(self):
        t1 = self.tau1
        if isinstance(t1, complex) or not isinstance(t1, Number):
            raise ValueError("tau1 must be real")
        if not isinstance(t1, Rational) and not cmath.isfinite(t1):
            raise ValueError(f"tau1 must be finite, got {_shown(t1)}")
        if not 0 <= t1 <= 1:
            raise ValueError(f"tau1 must lie in [0, 1], got {_shown(t1)}")
        _check_coordinate("tau2", self.tau2, 1, _TAU_BOUND_SQ)
        _check_coordinate("tau3", self.tau3, 1, _TAU_BOUND_SQ)


@dataclass(frozen=True)
class SchwarzCoeffs:
    """Initial coefficients c1..c3 of a positive-real-part function.

    c2 and c3 may be absent (None); every present coefficient obeys the class
    bound |c| <= 2 up to float rounding.
    """

    c1: complex
    c2: complex | None = None
    c3: complex | None = None

    def __post_init__(self):
        for name in ("c1", "c2", "c3"):
            if (val := getattr(self, name)) is not None:
                _check_coordinate(name, val, 2, _COEFF_BOUND_SQ)


def c12(t1, tau2):
    """``(c1, c2)`` of the parameter map, elementwise and unvalidated: exact
    over rationals, broadcasting over numpy arrays."""
    c1 = 2 * t1
    return c1, c1 * t1 + 2 * (1 - t1 * t1) * tau2


def c3_parts(t1, tau2):
    """``(head, w)`` with ``c3 = head + w tau3`` and real ``w >= 0``;
    elementwise and unvalidated, like :func:`c12`."""
    u = 1 - t1 * t1
    ut = u * t1
    head = 2 * t1 ** 3 + 4 * ut * tau2 - 2 * ut * tau2 * tau2
    return head, 2 * u * (1 - mag_squared(tau2))


def coeffs_from_point(pt: CaratheodoryPoint) -> SchwarzCoeffs:
    """Map a parameter triple to (c1, c2, c3); exact over rational inputs.

    The map runs at most once per point.  The point keeps its result in its
    instance dict, outside the dataclass fields, so eq, hash, repr and
    ``dataclasses.replace`` never see it."""
    c = pt.__dict__.get("_coeffs")
    if c is None:
        c1, c2 = c12(pt.tau1, pt.tau2)
        head, w = c3_parts(pt.tau1, pt.tau2)
        c = SchwarzCoeffs(c1, c2, head + w * pt.tau3)
        object.__setattr__(pt, "_coeffs", c)  # the point is frozen
    return c


def extremal_p_series(pt: CaratheodoryPoint, order: int) -> TruncatedSeries:
    """Series of the unique representing function for a boundary triple.

    The triple must sit on one of the three extremal strata: tau1 = 1, or
    |tau2| = 1 with tau1 < 1, or |tau3| = 1 with tau1, |tau2| < 1; interior
    triples have no unique representative and are rejected.  With tau_k the
    first coordinate on the unit circle, Schur's step
    ``f <- (z f + tau)/(1 + conj(tau) z f)`` (Schur, 1917) folds tau_{k-1}
    .. tau1 into ``f = tau_k``, a numerator/denominator pair of degree at
    most 3, and ``p = (1 + z f)/(1 - z f)``.  The scalar mode is inferred,
    so a rational triple gives an exact series.
    """
    taus = (pt.tau1, pt.tau2, pt.tau3)
    circle = [abs(float(mag_squared(t)) - 1.0) <= 3 * TAU_BOUNDARY_TOL for t in taus]
    if not any(circle):
        raise ValueError(
            "no unique representing function: the triple lies in the interior of every stratum"
        )
    k = circle.index(True)
    num, den = [taus[k]], [1]
    for t in reversed(taus[:k]):
        zf, den = [0, *num], den + [0]  # z f over den, both one degree longer
        num = [a + t * b for a, b in zip(zf, den)]
        den = [b + t.conjugate() * a for a, b in zip(zf, den)]
    zf, den = [0, *num], den + [0]
    return series_div(series([b + a for a, b in zip(zf, den)], order=order),
                      series([b - a for a, b in zip(zf, den)], order=order))


def schwarz_from_p(p: TruncatedSeries) -> TruncatedSeries:
    """The Schwarz bridge ``omega = (p - 1)/(p + 1)`` as a series.

    The first coefficients come out as

        omega1 = c1/2
        omega2 = (c2 - c1^2/2)/2
        omega3 = (c3 - c1 c2 + c1^3/4)/2
        omega4 = (c4 - c1 c3 + 3 c1^2 c2 / 4 - c2^2/2 - c1^4/8)/2
    """
    if p.coeffs[0] != 1:
        raise ValueError("schwarz_from_p requires constant term 1")
    return series_div(p - 1, p + 1)
