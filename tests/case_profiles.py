"""The paper's reference routes, kept as test cross-checks of the library's
one definition of each formula.

The a -> gamma chain: the Taylor coefficients a2..a4 of f from c1..c3, then
the logarithmic coefficients of f and of its inverse from a2..a4, and every
functional from those.  The library writes each gamma_n and Gamma_n directly
as a polynomial in c1..c3.

The paper's scalar case profiles of the Hankel maximization, kept as
cross-checks of the profiles the verifier derives.

``phi(t) = 12 - 4 t^2 - 5 t^4`` and ``Psi(t) = 12 + 12 t^2 - 33 t^4`` live on
[0, 1]; ``Phi(t) = (12 - 8 t^2 + 5 t^4) sqrt((52 - 16 t^2) / (9 (3 + t^2)))``
lives on [TAU_SPLIT, 1).  Divided by 192, phi is the ``H21_log`` profile, and
Psi below TAU_SPLIT and Phi above it are the ``H21_inverse`` profile.
The paper's tau forms of the two determinants are kept here as well, with
their (A, B, C, W) rows in tau1.

A grid of (c1, c2, c3) points on which equality proves two forms in c1..c3
equal as polynomials, and on it the rotation covariance of both determinants.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as F
from types import SimpleNamespace

from coeffsharp._poly import Poly
from coeffsharp.caratheodory import SchwarzCoeffs, mag_squared
from coeffsharp.functionals import hankel_log, hankel_log_inverse
from coeffsharp.lemmas import form_coefficients


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


def taylor_from_c(c) -> TaylorCoeffs:
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


def chain_functionals(a: TaylorCoeffs) -> dict:
    """Each functional of ``FUNCTIONAL_NAMES`` through the a -> gamma chain."""
    g, inv = gamma_from_a(a), inverse_from_a(a)
    return {
        "gamma1": g.gamma1, "gamma2": g.gamma2, "gamma3": g.gamma3,
        "Gamma1": inv.Gamma1, "Gamma2": inv.Gamma2,
        "H21_log": g.gamma1 * g.gamma3 - g.gamma2 ** 2,
        "H21_log_inverse": inv.Gamma1 * inv.Gamma3 - inv.Gamma2 ** 2,
        "diff_gamma": abs(g.gamma2) - abs(g.gamma1),
        "diff_Gamma": abs(inv.Gamma2) - abs(inv.Gamma1),
    }


#: positive root of 101 t^4 + 148 t^2 - 60, where the fallback branch of the
#: inverse-Hankel case analysis switches form (~0.575109)
TAU_SPLIT = math.sqrt((4.0 * math.sqrt(721.0) - 74.0) / 101.0)

#: interior maximizer of Psi (~0.426401)
PSI_ARGMAX = math.sqrt(2.0 / 11.0)


def phi(t):
    return 12 - 4 * t * t - 5 * t ** 4


def Psi(t):
    return 12 + 12 * t * t - 33 * t ** 4


def Phi(t):
    return (12 - 8 * t * t + 5 * t ** 4) * math.sqrt((52 - 16 * t * t) / (9 * (3 + t * t)))


#: ``(quartic, quad)`` of the paper's tau form of each determinant
HANKEL_TAU = {"H21_log": (-3, 4), "H21_log_inverse": (9, -20)}


def hankel_tau(name, t1, tau2, tau3):
    """The paper's ``192 H = head + w tau3``, with ``w >= 0`` real."""
    quartic, quad = HANKEL_TAU[name]
    u = 1 - t1 * t1
    head = quartic * t1 ** 4 + quad * t1 * t1 * tau2 * u - 4 * tau2 * tau2 * (3 + t1 * t1) * u
    return (head + 16 * t1 * u * (1 - mag_squared(tau2)) * tau3) / 192


def hankel_tau_rows(name):
    """The tau form's exact (A, B, C, W), each highest degree first, with

        H = A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3

    read off it with tau1 an exact polynomial.  The form has that shape as
    written, and so does the library's closed form (its derivation checks
    it), so equal rows prove the two equal on the whole domain.
    """
    t1 = Poly((0, 1))
    rows = form_coefficients(lambda tau2, tau3: hankel_tau(name, t1, tau2, tau3))
    return tuple(p.coef[::-1] for p in rows)


# Alon's Combinatorial Nullstellensatz (1999): a polynomial of degree at most
# 4 in c1, 2 in c2 and 1 in c3 that vanishes on a grid of 5 x 3 x 2 points is
# zero.  Every direct form and its value through the a -> gamma chain obey
# those degrees, so exact equality on the grid proves them equal as polynomials.
C1_GRID = (F(-2), F(-1), F(0), F(1, 3), F(2))
C2_GRID = (F(-1), F(0), F(3, 2))
C3_GRID = (F(-1, 2), F(2))


def nullstellensatz_grid():
    """The grid's points as exact ``SchwarzCoeffs``."""
    return itertools.starmap(SchwarzCoeffs, itertools.product(C1_GRID, C2_GRID, C3_GRID))


def rotated_hankels():
    """``(name, c, H(c1 w, c2 w^2, c3 w^3), w^4 H(c))`` for both determinants H
    at each grid point c, with the rotation w an exact polynomial variable.

    Each power of w carries a polynomial in c1..c3 of the grid's degrees, so
    equal pairs at every grid point prove ``H(rotated c) = w^4 H(c)``, and
    with it that |H| is invariant under rotation.
    """
    w = Poly((0, 1))
    for c in nullstellensatz_grid():
        rotated = SimpleNamespace(c1=c.c1 * w, c2=c.c2 * w ** 2, c3=c.c3 * w ** 3)
        for hankel in (hankel_log, hankel_log_inverse):
            yield hankel.__name__, c, hankel(rotated), w ** 4 * hankel(c)
