"""Parameter triples for positive-real-part functions and their coefficients.

The first three Taylor coefficients of any function ``p`` with ``p(0) = 1``
and positive real part are reachable from a triple ``(tau1, tau2, tau3)``
with ``tau1 in [0, 1]`` and ``tau2, tau3`` in the closed unit disk:

    c1 = 2 tau1
    c2 = 2 tau1^2 + 2 (1 - tau1^2) tau2
    c3 = 2 tau1^3 + 4 (1 - tau1^2) tau1 tau2 - 2 (1 - tau1^2) tau1 tau2^2
         + 2 (1 - tau1^2) (1 - |tau2|^2) tau3

On each boundary stratum the representing function is a unique rational
map, exposed here as a truncated series.  The bridge ``omega = (p-1)/(p+1)``
turns any such ``p`` into a Schwarz function.
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


def _mag_within(x, bound_sq: tuple) -> bool:
    """``|x|^2`` at most a squared bound ``(float, exact Fraction)``: a rational
    x is compared with the exact value, anything else with the float."""
    return mag_squared(x) <= bound_sq[isinstance(x, Rational)]


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
        if not 0 <= t1 <= 1:
            raise ValueError(f"tau1 must lie in [0, 1], got {_shown(t1)}")
        for name in ("tau2", "tau3"):
            val = getattr(self, name)
            if not isinstance(val, Number):
                raise ValueError(f"{name} must be a number")
            if not _mag_within(val, _TAU_BOUND_SQ):
                raise ValueError(f"|{name}| must be <= 1, got {_shown(val)}")


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
            val = getattr(self, name)
            if val is None:
                continue
            if not isinstance(val, Number):
                raise ValueError(f"{name} must be a number")
            if not isinstance(val, Rational) and not cmath.isfinite(val):
                raise ValueError(f"{name} must be finite, got {_shown(val)}")
            if not _mag_within(val, _COEFF_BOUND_SQ):
                raise ValueError(f"|{name}| must be <= 2, got {_shown(val)}")


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


def _on_circle(x) -> bool:
    return abs(float(mag_squared(x)) - 1.0) <= 3 * TAU_BOUNDARY_TOL


def extremal_p_series(pt: CaratheodoryPoint, order: int) -> TruncatedSeries:
    """Series of the unique representing function for a boundary triple.

    The triple must sit on one of the three extremal strata: tau1 = 1, or
    |tau2| = 1 with tau1 < 1, or |tau3| = 1 with tau1, |tau2| < 1.  Interior
    triples have no unique representative and are rejected.
    """
    t1 = complex(pt.tau1)
    t2 = complex(pt.tau2)
    t3 = complex(pt.tau3)
    if _on_circle(pt.tau1):
        num = [1, t1]
        den = [1, -t1]
    elif _on_circle(t2):
        num = [1, t1.conjugate() * t2 + t1, t2]
        den = [1, t1.conjugate() * t2 - t1, -t2]
    elif _on_circle(t3):
        num = [
            1,
            t2.conjugate() * t3 + t1.conjugate() * t2 + t1,
            t1.conjugate() * t3 + t1 * t2.conjugate() * t3 + t2,
            t3,
        ]
        den = [
            1,
            t2.conjugate() * t3 + t1.conjugate() * t2 - t1,
            t1.conjugate() * t3 - t1 * t2.conjugate() * t3 - t2,
            -t3,
        ]
    else:
        raise ValueError(
            "no unique representing function: the triple lies in the interior of every stratum"
        )
    return series_div(series(num, order=order), series(den, order=order))


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
