"""Closed-form coefficient functionals over (c1, c2, c3).

Every logarithmic coefficient of f and of its inverse is written directly as
a polynomial in c1..c3, and the other functionals are built from them or
written the same way.  All formulas are plain polynomial arithmetic, so they
are exact over ``fractions.Fraction`` inputs and double precision over
complex ones.
The two moduli-difference functionals are intrinsically real; everything
else returns a signed complex (or rational) value and callers take
magnitudes.  The closed forms read c1..c3 as given; ``evaluate_functional``
checks that the ones a functional reads are present and zero-fills the rest,
and maps a tau triple to its coefficients first.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caratheodory import CaratheodoryPoint, SchwarzCoeffs, coeffs_from_point

__all__ = [
    "FUNCTIONAL_NAMES",
    "FunctionalValue",
    "hankel_log",
    "hankel_log_inverse",
    "moduli_diff_gamma",
    "moduli_diff_Gamma",
    "evaluate_functional",
]


@dataclass(frozen=True)
class FunctionalValue:
    """A named functional value plus the input it came from."""

    name: str
    value: complex
    source: object

    def __post_init__(self):
        if self.name not in FUNCTIONAL_NAMES:
            raise ValueError(f"unknown functional {self.name!r}")

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _gamma1(c: SchwarzCoeffs):
    return c.c1 / 4


def _gamma2(c: SchwarzCoeffs):
    return (4 * c.c2 - c.c1 * c.c1) / 32


def _gamma3(c: SchwarzCoeffs):
    return (2 * c.c3 - c.c1 * c.c2) / 24


def _Gamma1(c: SchwarzCoeffs):
    return -c.c1 / 4


def _Gamma2(c: SchwarzCoeffs):
    return (5 * c.c1 * c.c1 - 4 * c.c2) / 32


def hankel_log(c: SchwarzCoeffs):
    """gamma1*gamma3 - gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    s = c1 * c1
    return (-3 * s * s - 8 * s * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def hankel_log_inverse(c: SchwarzCoeffs):
    """Gamma1*Gamma3 - Gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    s = c1 * c1
    return (33 * s * s - 56 * s * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def moduli_diff_gamma(c: SchwarzCoeffs):
    """|gamma2| - |gamma1|; real valued."""
    return abs(_gamma2(c)) - abs(_gamma1(c))


def moduli_diff_Gamma(c: SchwarzCoeffs):
    """|Gamma2| - |Gamma1|; real valued."""
    return abs(_Gamma2(c)) - abs(_Gamma1(c))


# name -> (how many of c1..c3 it reads, closed form in c1..c3)
_FUNCTIONALS = {
    "gamma1": (1, _gamma1),
    "gamma2": (2, _gamma2),
    "gamma3": (3, _gamma3),
    "Gamma1": (1, _Gamma1),
    "Gamma2": (2, _Gamma2),
    "H21_log": (3, hankel_log),
    "H21_log_inverse": (3, hankel_log_inverse),
    "diff_gamma": (2, moduli_diff_gamma),
    "diff_Gamma": (2, moduli_diff_Gamma),
}

FUNCTIONAL_NAMES = tuple(_FUNCTIONALS)


def evaluate_functional(name: str, source) -> FunctionalValue:
    """Evaluate a named functional on a parameter triple or on coefficients.

    A triple goes through the coefficient map, which it computes once and
    keeps; coefficients go straight into the closed forms.  Coefficients the
    functional reads must be present; the trailing ones it does not read are
    zero-filled, since they cancel out of its value.
    """
    if name not in _FUNCTIONALS:
        raise ValueError(f"unknown functional {name!r}")
    count, form = _FUNCTIONALS[name]
    if isinstance(source, CaratheodoryPoint):
        return FunctionalValue(name, form(coeffs_from_point(source)), source)
    if not isinstance(source, SchwarzCoeffs):
        raise ValueError("source must be a CaratheodoryPoint or SchwarzCoeffs")
    c, vals = source, (source.c1, source.c2, source.c3)
    missing = [i for i, v in enumerate(vals) if v is None]
    if missing:
        if missing[0] < count:
            raise ValueError(f"c{missing[0] + 1} is required here but absent")
        c = SchwarzCoeffs(*(0 if v is None else v for v in vals))
    return FunctionalValue(name, form(c), source)
