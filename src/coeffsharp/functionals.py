"""Closed-form coefficient functionals over (c1, c2, c3[, c4]) or tau triples.

All formulas are plain polynomial arithmetic, so they are exact over
``fractions.Fraction`` inputs and double precision over complex ones.
The two moduli-difference functionals are intrinsically real; everything
else returns a signed complex (or rational) value and callers take
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caratheodory import CaratheodoryPoint, SchwarzCoeffs, coeffs_from_point, mag_squared

FUNCTIONAL_NAMES = (
    "gamma1",
    "gamma2",
    "gamma3",
    "Gamma1",
    "Gamma2",
    "H21_log",
    "H21_log_inverse",
    "diff_gamma",
    "diff_Gamma",
)

# how many of c1..c3 each functional actually reads
_REQUIRED_PREFIX = {
    "gamma1": 1,
    "gamma2": 2,
    "gamma3": 3,
    "Gamma1": 1,
    "Gamma2": 2,
    "H21_log": 3,
    "H21_log_inverse": 3,
    "diff_gamma": 2,
    "diff_Gamma": 2,
}

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
    "hankel_tau_parts",
    "hankel_log_tau",
    "hankel_log_inverse",
    "hankel_inverse_tau",
    "diff_gamma_c",
    "diff_Gamma_c",
    "moduli_diff_gamma",
    "moduli_diff_Gamma",
    "evaluate_functional",
]


@dataclass(frozen=True)
class TaylorCoeffs:
    a2: complex
    a3: complex
    a4: complex
    a5: complex | None = None


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
    A5: complex | None = None


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


def _need(c: SchwarzCoeffs, count: int):
    vals = (c.c1, c.c2, c.c3)
    for i in range(count):
        if vals[i] is None:
            raise ValueError(f"c{i + 1} is required here but absent")
    return tuple(v if v is not None else 0 for v in vals)


def taylor_from_c(c: SchwarzCoeffs) -> TaylorCoeffs:
    """Taylor coefficients a2..a4 (and a5 when c4 is present).

        a2 = c1/2
        a3 = c1^2/16 + c2/4
        a4 = -c1^3/96 + c1 c2/24 + c3/6
        a5 = c1^4/192 - 5 c2 c1^2/192 + c1 c3/48 + c4/8
    """
    c1, c2, c3 = _need(c, 3)
    a2 = c1 / 2
    a3 = c1 * c1 / 16 + c2 / 4
    a4 = -(c1 ** 3) / 96 + c1 * c2 / 24 + c3 / 6
    a5 = None
    if c.c4 is not None:
        a5 = c1 ** 4 / 192 - 5 * c2 * c1 * c1 / 192 + c1 * c3 / 48 + c.c4 / 8
    return TaylorCoeffs(a2, a3, a4, a5)


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
    A5 = None
    if a.a5 is not None:
        A5 = -a.a5 + 6 * a4 * a2 - 21 * a3 * a2 * a2 + 3 * a3 * a3 + 14 * a2 ** 4
    G1 = -a2 / 2
    G2 = -(a3 - 3 * a2 * a2 / 2) / 2
    G3 = -(a4 - 4 * a2 * a3 + 10 * a2 ** 3 / 3) / 2
    return InverseCoeffs(A2, A3, A4, G1, G2, G3, A5)


def hankel_log(c: SchwarzCoeffs):
    """gamma1*gamma3 - gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = _need(c, 3)
    return (-3 * c1 ** 4 - 8 * c1 * c1 * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def hankel_tau_parts(t1, tau2, quartic, quad):
    """``(head, w)`` with ``192 * determinant = head + w tau3``, elementwise.

    ``(quartic, quad)`` is ``(-3, 4)`` for the log determinant and ``(9, -20)``
    for the inverse one; both share the real weight ``w >= 0``.
    """
    u = 1 - t1 * t1
    head = quartic * t1 ** 4 + quad * t1 * t1 * tau2 * u - 4 * tau2 * tau2 * (3 + t1 * t1) * u
    return head, 16 * t1 * u * (1 - mag_squared(tau2))


def hankel_log_tau(pt: CaratheodoryPoint):
    """Same determinant evaluated directly on the parameter triple."""
    head, w = hankel_tau_parts(pt.tau1, pt.tau2, -3, 4)
    return (head + w * pt.tau3) / 192


def hankel_log_inverse(c: SchwarzCoeffs):
    """Gamma1*Gamma3 - Gamma2^2 as a polynomial in c1..c3."""
    c1, c2, c3 = _need(c, 3)
    return (33 * c1 ** 4 - 56 * c1 * c1 * c2 - 48 * c2 * c2 + 64 * c1 * c3) / 3072


def hankel_inverse_tau(pt: CaratheodoryPoint):
    """Inverse-coefficient determinant on the parameter triple."""
    head, w = hankel_tau_parts(pt.tau1, pt.tau2, 9, -20)
    return (head + w * pt.tau3) / 192


def diff_gamma_c(c1, c2):
    """|-c1^2/32 + c2/8| - |c1/4|, elementwise on raw coefficients."""
    return abs(-c1 * c1 / 32 + c2 / 8) - abs(c1) / 4


def diff_Gamma_c(c1, c2):
    """|5 c1^2/32 - c2/8| - |c1/4|, elementwise on raw coefficients."""
    return abs(5 * c1 * c1 / 32 - c2 / 8) - abs(c1) / 4


def moduli_diff_gamma(c: SchwarzCoeffs):
    """|gamma2| - |gamma1| = |-c1^2/32 + c2/8| - |c1/4|; real valued."""
    return diff_gamma_c(*_need(c, 2)[:2])


def moduli_diff_Gamma(c: SchwarzCoeffs):
    """|Gamma2| - |Gamma1| = |5 c1^2/32 - c2/8| - |c1/4|; real valued."""
    return diff_Gamma_c(*_need(c, 2)[:2])


def _filled(c: SchwarzCoeffs, count: int) -> SchwarzCoeffs:
    # Zero-fill the trailing coefficients a route formally consumes but the
    # functional provably never reads (they cancel out of the result).
    _need(c, count)
    if c.c2 is not None and c.c3 is not None:
        return c
    return SchwarzCoeffs(c.c1, c.c2 if c.c2 is not None else 0,
                         c.c3 if c.c3 is not None else 0, c.c4)


def evaluate_functional(name: str, source) -> FunctionalValue:
    """Evaluate a named functional on a parameter triple or on coefficients.

    Triples feed the Hankel determinants through their tau forms and
    everything else through the coefficient map; coefficients go straight
    into the closed forms.
    """
    if name not in FUNCTIONAL_NAMES:
        raise ValueError(f"unknown functional {name!r}")
    if isinstance(source, CaratheodoryPoint):
        if name == "H21_log":
            return FunctionalValue(name, hankel_log_tau(source), source)
        if name == "H21_log_inverse":
            return FunctionalValue(name, hankel_inverse_tau(source), source)
        value = _from_coeffs(name, coeffs_from_point(source))
        return FunctionalValue(name, value, source)
    if isinstance(source, SchwarzCoeffs):
        return FunctionalValue(name, _from_coeffs(name, source), source)
    raise ValueError("source must be a CaratheodoryPoint or SchwarzCoeffs")


def _from_coeffs(name: str, c: SchwarzCoeffs):
    c = _filled(c, _REQUIRED_PREFIX[name])
    if name in ("gamma1", "gamma2", "gamma3"):
        g = gamma_from_a(taylor_from_c(c))
        return getattr(g, name)
    if name in ("Gamma1", "Gamma2"):
        inv = inverse_from_a(taylor_from_c(c))
        return getattr(inv, name)
    if name == "H21_log":
        return hankel_log(c)
    if name == "H21_log_inverse":
        return hankel_log_inverse(c)
    if name == "diff_gamma":
        return moduli_diff_gamma(c)
    return moduli_diff_Gamma(c)
