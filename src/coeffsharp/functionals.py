"""Closed-form coefficient functionals over (c1, c2, c3).

All formulas are plain polynomial arithmetic, so they are exact over
``fractions.Fraction`` inputs and double precision over complex ones.
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
    "TaylorCoeffs",
    "LogCoeffs",
    "InverseCoeffs",
    "FunctionalValue",
    "taylor_from_c",
    "gamma_from_a",
    "inverse_from_a",
    "hankel_log",
    "hankel_log_inverse",
    "moduli_diff_gamma",
    "moduli_diff_Gamma",
    "evaluate_functional",
]


@dataclass(frozen=True)
class TaylorCoeffs:
    a2: complex
    a3: complex
    a4: complex


@dataclass(frozen=True)
class LogCoeffs:
    gamma1: complex
    gamma2: complex
    gamma3: complex


@dataclass(frozen=True)
class InverseCoeffs:
    A2: complex
    A3: complex
    A4: complex
    Gamma1: complex
    Gamma2: complex
    Gamma3: complex


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


def taylor_from_c(c: SchwarzCoeffs) -> TaylorCoeffs:
    """Taylor coefficients a2..a4.

        a2 = c1/2
        a3 = c1^2/16 + c2/4
        a4 = -c1^3/96 + c1 c2/24 + c3/6
    """
    c1, c2, c3 = c.c1, c.c2, c.c3
    a2 = c1 / 2
    a3 = c1 * c1 / 16 + c2 / 4
    a4 = -(c1 ** 3) / 96 + c1 * c2 / 24 + c3 / 6
    return TaylorCoeffs(a2, a3, a4)


def gamma_from_a(a: TaylorCoeffs) -> LogCoeffs:
    """Logarithmic coefficients of f: half the series of log(f(z)/z)."""
    g1 = a.a2 / 2
    g2 = (a.a3 - a.a2 * a.a2 / 2) / 2
    g3 = (a.a4 - a.a2 * a.a3 + a.a2 ** 3 / 3) / 2
    return LogCoeffs(g1, g2, g3)


def inverse_from_a(a: TaylorCoeffs) -> InverseCoeffs:
    """Coefficients of the local inverse and its logarithmic coefficients."""
    a2, a3, a4 = a.a2, a.a3, a.a4
    A2 = -a2
    A3 = -a3 + 2 * a2 * a2
    A4 = -a4 + 5 * a2 * a3 - 5 * a2 ** 3
    G1 = -a2 / 2
    G2 = -(a3 - 3 * a2 * a2 / 2) / 2
    G3 = -(a4 - 4 * a2 * a3 + 10 * a2 ** 3 / 3) / 2
    return InverseCoeffs(A2, A3, A4, G1, G2, G3)


def hankel_log(c: SchwarzCoeffs):
    """gamma1*gamma3 - gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    return (-3 * c1 ** 4 - 8 * c1 * c1 * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def hankel_log_inverse(c: SchwarzCoeffs):
    """Gamma1*Gamma3 - Gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = c.c1, c.c2, c.c3
    return (33 * c1 ** 4 - 56 * c1 * c1 * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def moduli_diff_gamma(c: SchwarzCoeffs):
    """|gamma2| - |gamma1| = |-c1^2/32 + c2/8| - |c1/4|; real valued."""
    c1, c2 = c.c1, c.c2
    return abs(-c1 * c1 / 32 + c2 / 8) - abs(c1) / 4


def moduli_diff_Gamma(c: SchwarzCoeffs):
    """|Gamma2| - |Gamma1| = |5 c1^2/32 - c2/8| - |c1/4|; real valued."""
    c1, c2 = c.c1, c.c2
    return abs(5 * c1 * c1 / 32 - c2 / 8) - abs(c1) / 4


# name -> (how many of c1..c3 it reads, closed form in c1..c3)
_FUNCTIONALS = {
    "gamma1": (1, lambda c: gamma_from_a(taylor_from_c(c)).gamma1),
    "gamma2": (2, lambda c: gamma_from_a(taylor_from_c(c)).gamma2),
    "gamma3": (3, lambda c: gamma_from_a(taylor_from_c(c)).gamma3),
    "Gamma1": (1, lambda c: inverse_from_a(taylor_from_c(c)).Gamma1),
    "Gamma2": (2, lambda c: inverse_from_a(taylor_from_c(c)).Gamma2),
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
