"""The paper's scalar case profiles of the Hankel maximization, kept as test
cross-checks of the profiles the verifier derives.

``phi(t) = 12 - 4 t^2 - 5 t^4`` and ``Psi(t) = 12 + 12 t^2 - 33 t^4`` live on
[0, 1]; ``Phi(t) = (12 - 8 t^2 + 5 t^4) sqrt((52 - 16 t^2) / (9 (3 + t^2)))``
lives on [TAU_SPLIT, 1).  Divided by 192, phi is the ``H21_log`` profile, and
Psi below TAU_SPLIT and Phi above it are the ``H21_inverse`` profile.
The paper's tau forms of the two determinants are kept here as well.
"""

import math

from coeffsharp.caratheodory import mag_squared

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
