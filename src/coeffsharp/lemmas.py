"""Auxiliary sharp maxima: piecewise closed forms next to brute-force oracles.

Three families live here.

* ``Y(A, B, C)`` is the maximum of ``|A + B z + C z^2| + 1 - |z|^2`` over the
  closed unit disk, a seven-branch piecewise formula for real A, B, C.  Its
  oracle scans a polar grid of the disk with golden-section polish.
* Sharp bounds for ``|c2 - v c1^2|`` and ``|c3 - 2B c1 c2 + D c1^3|`` over
  positive-real-part coefficients, with grid oracles over the parameter
  domain.
* The two-sided bound for ``|B2 c1^2 + B3 c2| - |B1 c1|`` and the scalar
  profiles phi/Psi/Phi that the Hankel case analysis reduces to.

Boundary ties in piecewise conditions resolve to the first listed branch;
the branches agree at the seams (see the seam tests).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from numbers import Rational

import numpy as np

from ._search import golden_max, grid_argmax, polar, tau_argmax, unit_direction
from .caratheodory import c12, c3_parts

#: positive root of 101 t^4 + 148 t^2 - 60, where the fallback branch of the
#: inverse-Hankel case analysis switches form (~0.575109).
TAU_SPLIT = math.sqrt((4.0 * math.sqrt(721.0) - 74.0) / 101.0)

#: interior maximizer of the profile 12 + 12 t^2 - 33 t^4 (~0.426401).
PSI_ARGMAX = math.sqrt(2.0 / 11.0)

__all__ = [
    "TAU_SPLIT",
    "PSI_ARGMAX",
    "YInput",
    "PsiInput",
    "Lemma24Report",
    "y_closed_form",
    "y_branch",
    "y_brute_force",
    "lemma23_bound",
    "lemma23_empirical",
    "lemma24_check",
    "psi_plus_bound",
    "psi_minus_bound",
    "psi_empirical",
    "case_scalar_functions",
    "case_scalar_extremum",
]


@dataclass(frozen=True)
class YInput:
    """Real coefficients of the disk objective |A + B z + C z^2| + 1 - |z|^2."""

    A: float
    B: float
    C: float

    def __post_init__(self):
        for name in ("A", "B", "C"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PsiInput:
    """Weights of the two-sided functional |B2 c1^2 + B3 c2| - |B1 c1|."""

    B1: float
    B2: complex
    B3: float

    def __post_init__(self):
        if not (math.isfinite(self.B1) and self.B1 > 0):
            raise ValueError("B1 must be positive and finite")
        if not isinstance(self.B2, Rational) and not cmath.isfinite(self.B2):
            raise ValueError("B2 must be finite")
        if not math.isfinite(self.B3):
            raise ValueError("B3 must be finite and real")

    @property
    def B4(self) -> float:
        return abs(4 * self.B2 + 2 * self.B3)


def _y_pieces(A: float, B: float, C: float):
    a, b, c = abs(A), abs(B), abs(C)
    if A * C >= 0:
        if b >= 2 * (1 - c):
            return a + b + c, "i.sum"
        return 1 + a + b * b / (4 * (1 - c)), "i.parabola"
    # A*C < 0 from here on, so C != 0.
    inner = -4 * A * C * (1 / (C * C) - 1)
    if inner <= b * b and b < 2 * (1 - c):
        return 1 - a + b * b / (4 * (1 - c)), "ii.parabola-minus"
    if b * b < min(4 * (1 + c) ** 2, inner):
        return 1 + a + b * b / (4 * (1 + c)), "ii.parabola-plus"
    if c * (b + 4 * a) <= a * b:
        return a + b - c, "R.drop-c"
    if a * b <= c * (b - 4 * a):
        return -a + b + c, "R.drop-a"
    return (c + a) * math.sqrt(1 - b * b / (4 * A * C)), "R.sqrt"


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"result is {value}, not finite: the inputs are too large")
    return value


def y_closed_form(yin: YInput) -> float:
    """Closed-form maximum of |A + B z + C z^2| + 1 - |z|^2 over the disk.

    A maximum that overflows is rejected with ValueError, as in y_branch.
    """
    return _finite(_y_pieces(yin.A, yin.B, yin.C)[0])


def y_branch(yin: YInput) -> str:
    """Label of the piecewise branch the closed form takes."""
    value, branch = _y_pieces(yin.A, yin.B, yin.C)
    _finite(value)
    return branch


def y_brute_force(yin: YInput, grid: int = 200) -> float:
    """Grid maximum of the disk objective; the oracle for y_closed_form.

    Scans ``grid`` radii by ``3.6 * grid`` angles, then polishes the
    incumbent with alternating golden-section sweeps in angle and radius.
    """
    if grid < 100:
        raise ValueError("grid must be >= 100 points per axis")
    A, B, C = yin.A, yin.B, yin.C

    def grid_objective(r, th):
        z = polar(r, th)
        return np.abs(A + B * z + C * z * z) + 1.0 - r * r

    n_angles = int(3.6 * grid)
    axes = [(0.0, 1.0, grid, False), (0.0, 2.0 * np.pi, n_angles, True)]
    best, (r0, th0), _ = grid_argmax(grid_objective, axes)

    def g(r, th):
        w = r * complex(math.cos(th), math.sin(th))
        return abs(A + B * w + C * w * w) + 1.0 - r * r

    dr = 2.0 / (grid - 1)
    dth = 2.0 * (2.0 * np.pi / n_angles)
    for _ in range(3):
        th0 = golden_max(lambda t: g(r0, t), th0 - dth, th0 + dth)
        r0 = golden_max(lambda r: g(r, th0), max(0.0, r0 - dr), min(1.0, r0 + dr))
    return max(best, g(r0, th0))


def lemma23_bound(v: float) -> float:
    """Sharp bound for |c2 - v c1^2| over the positive-real-part class."""
    if not math.isfinite(v):
        raise ValueError("v must be finite")
    if v < 0:
        return _finite(-4 * v + 2)
    if v <= 1:
        return 2.0
    return _finite(4 * v - 2)


def lemma23_empirical(v: float, samples: int = 48) -> float:
    """Grid maximum of |c2 - v c1^2|; approaches lemma23_bound from below."""
    def objective(t1, tau2):
        c1, c2 = c12(t1, tau2)
        return np.abs(c2 - v * c1 * c1)

    return tau_argmax(objective, samples, max(2, samples // 4), samples + samples % 2)[0]


@dataclass(frozen=True)
class Lemma24Report:
    empirical_max: float
    passed: bool
    at: tuple


def _lemma24_parts(B, D, t1, tau2):
    """(head, w3) with c3 - 2B c1 c2 + D c1^3 = head + w3 tau3, elementwise."""
    c1, c2 = c12(t1, tau2)
    head, w3 = c3_parts(t1, tau2)
    return head - 2.0 * B * c1 * c2 + D * c1 ** 3, w3


def _lemma24_sup(B, D, t1, tau2):
    """Sup of |c3 - 2B c1 c2 + D c1^3| over the tau3 disk: |head| + w3."""
    head, w3 = _lemma24_parts(B, D, t1, tau2)
    return np.abs(head) + w3


def lemma24_check(B: float, D: float, samples: int = 21) -> Lemma24Report:
    """Empirical maximum of |c3 - 2B c1 c2 + D c1^3|, checked against 2.

    The functional is ``|head(tau1, tau2) + w3 tau3|`` with a real weight
    ``w3 >= 0``, so its sup over the tau3 disk is ``|head| + w3``, attained
    at ``tau3 = head/|head|`` (1 when head = 0); only (tau1, tau2) is
    scanned.  ``at`` holds the maximizing triple.

    Requires the hypothesis 0 <= B <= 1 and B(2B - 1) <= D <= B; anything
    else is rejected.
    """
    if not (0 <= B <= 1):
        raise ValueError("hypothesis violated: need 0 <= B <= 1")
    if not (B * (2 * B - 1) <= D <= B):
        raise ValueError("hypothesis violated: need B(2B - 1) <= D <= B")
    best, (t1, r, th), _ = tau_argmax(partial(_lemma24_sup, B, D), samples,
                                      max(2, (samples + 2) // 3), 2 * samples)
    tau2 = complex(polar(r, th))
    head, _ = _lemma24_parts(B, D, np.array([t1]), np.array([tau2]))
    return Lemma24Report(best, best <= 2.0 + 1e-9, (t1, tau2, unit_direction(complex(head[0]))))


def psi_plus_bound(pin: PsiInput) -> float:
    """Sharp upper bound for |B2 c1^2 + B3 c2| - |B1 c1|."""
    if abs(2 * pin.B2 + pin.B3) >= abs(pin.B3) + pin.B1:
        return _finite(pin.B4 - 2 * pin.B1)
    return _finite(2 * abs(pin.B3))


def psi_minus_bound(pin: PsiInput) -> float:
    """Sharp upper bound for the negated functional (so a lower bound)."""
    b1, b3, b4 = pin.B1, abs(pin.B3), pin.B4
    if b1 >= b4 + 2 * b3:
        return _finite(2 * b1 - b4)
    if b1 * b1 <= 2 * b3 * (b4 + 2 * b3):
        return _finite(2 * b1 * math.sqrt(2 * b3 / (b4 + 2 * b3)))
    return _finite(2 * b3 + b1 * b1 / (b4 + 2 * b3))


def psi_empirical(pin: PsiInput, n_tau1: int = 121, n_r: int = 9,
                  n_theta: int = 96, rounds: int = 5, shrink: float = 0.3):
    """Grid extremes of |B2 c1^2 + B3 c2| - |B1 c1| over the class.

    Returns (min, max) after local window refinement around both incumbents.
    Never exceeds psi_plus_bound above nor -psi_minus_bound below.
    """
    B1, B2, B3 = pin.B1, pin.B2, pin.B3

    def value(t1, tau2):
        c1, c2 = c12(t1, tau2)
        return np.abs(B2 * c1 * c1 + B3 * c2) - B1 * np.abs(c1)

    grid = (n_tau1, n_r, n_theta, rounds, shrink)
    vmax = tau_argmax(value, *grid)[0]
    vmin = -tau_argmax(lambda t1, tau2: -value(t1, tau2), *grid)[0]
    return vmin, vmax


def case_scalar_functions(name: str, t: float) -> float:
    """Scalar case profiles of the Hankel maximization.

    ``phi(t) = 12 - 4 t^2 - 5 t^4`` and ``Psi(t) = 12 + 12 t^2 - 33 t^4``
    live on [0, 1]; ``Phi(t) = (12 - 8 t^2 + 5 t^4) sqrt((52 - 16 t^2) /
    (9 (3 + t^2)))`` lives on [TAU_SPLIT, 1).
    """
    if name in ("phi", "Psi"):
        if not 0 <= t <= 1:
            raise ValueError(f"{name} is defined on [0, 1]")
        if name == "phi":
            return 12 - 4 * t * t - 5 * t ** 4
        return 12 + 12 * t * t - 33 * t ** 4
    if name == "Phi":
        if not (TAU_SPLIT - 1e-12 <= t < 1):
            raise ValueError("Phi is defined on [TAU_SPLIT, 1)")
        return (12 - 8 * t * t + 5 * t ** 4) * math.sqrt(
            (52 - 16 * t * t) / (9 * (3 + t * t))
        )
    raise ValueError(f"unknown profile {name!r}; use phi, Psi or Phi")


def case_scalar_extremum(name: str):
    """(argmax, max) of a scalar case profile over its interval."""
    if name == "phi":
        return 0.0, 12.0
    if name == "Psi":
        return PSI_ARGMAX, 144.0 / 11.0
    if name == "Phi":
        return TAU_SPLIT, case_scalar_functions("Phi", TAU_SPLIT)
    raise ValueError(f"unknown profile {name!r}; use phi, Psi or Phi")
