"""Deterministic global search certifying each sharp bound.

``THEOREMS`` holds one :class:`Theorem` per bound (functional, sharp
constant and direction, exact witness); ``verify`` and
``sharpness_witness`` read nothing else.

Every target is searched as a 1-D profile in tau1, as the paper proves the
bounds.  With ``c1 = 2 tau1`` real, each functional the bounds are about is

    A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3

with real polynomials A, B, C, W in tau1, derived once per functional from
``evaluate_functional`` itself: its exact values on the points
``CaratheodoryPoint(tau1, tau2, tau3)`` with tau2 in {0, 1, -1} and tau3 in
{0, 1}, at five rational tau1 nodes, interpolated as ``Fraction``
polynomials of degree <= 4 and checked at a sixth node.  tau3 and tau2 are
then eliminated in closed form:

* with C = W = 0 (the two-parameter targets) the sup over the tau2 disk is
  ``|A| + |B|`` and the inf ``max(0, |A| - |B|)``;
* otherwise the sup over tau3 is ``|A + B tau2 + C tau2^2| + |W| (1 -
  |tau2|^2)``, and its sup over tau2 is ``|W| Y(A/|W|, B/|W|, C/|W|)`` by
  Lemma Y (``lemmas.form_max``), the maximum modulus on the circle where
  W = 0.

The moduli differences subtract ``|offset|``, a function of tau1 alone.
A theorem keeps, as floats, only the polynomials its profile reads.
``_search.tau1_argmax`` scans the profile over tau1 in [0, 1] (one full grid,
then shrinking windows around the incumbent), so ``evaluations`` counts
tau1 points, and the reported maximizer carries the exact maximizing tau2
and tau3.  ``SearchConfig.grid_r`` and ``grid_theta`` are accepted and
validated but no longer used.  Scans are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial

import numpy as np

from ._search import TAU1_GRID_MAX, tau1_argmax
from .caratheodory import CaratheodoryPoint, coeffs_from_point
from .functionals import FunctionalValue, evaluate_functional
from .lemmas import form_argmax, form_coefficients, form_max

__all__ = [
    "THEOREMS",
    "THEOREM_IDS",
    "Bound",
    "Theorem",
    "SearchConfig",
    "VerificationReport",
    "verify",
    "verify_all",
    "sharpness_witness",
]


@dataclass(frozen=True)
class Bound:
    """Theoretical sharp constant: exact expression plus float value."""

    expr: str
    value: float
    direction: str  # "max": supremum target; "min": infimum target


@dataclass(frozen=True)
class SearchConfig:
    grid_tau1: int = 101
    # unused since the search is 1-D in tau1; still accepted and validated
    # because the benchmark's search configs (perfbench/workloads.py) pass them
    grid_r: int = 21
    grid_theta: int = 72
    refinement_rounds: int = 6
    shrink_factor: float = 0.35
    tolerance_attain: float = 1e-4
    tolerance_exceed: float = 1e-9

    def __post_init__(self):
        if not 2 <= self.grid_tau1 <= TAU1_GRID_MAX:
            raise ValueError(f"grid_tau1 must lie in [2, {TAU1_GRID_MAX}]")
        for name in ("grid_r", "grid_theta"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if self.refinement_rounds < 0:
            raise ValueError("refinement_rounds must be >= 0")
        if not 0 < self.shrink_factor < 1:
            raise ValueError("shrink_factor must lie in (0, 1)")
        for name in ("tolerance_attain", "tolerance_exceed"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.tolerance_exceed <= 1e-9 <= self.tolerance_attain:
            raise ValueError("need tolerance_exceed <= 1e-9 <= tolerance_attain")


@dataclass(frozen=True)
class VerificationReport:
    theorem_id: str
    bound: Bound
    empirical_extremum: float
    maximizer: CaratheodoryPoint
    gap: float
    evaluations: int
    passed: bool


def _horner(coeffs, x):
    """The polynomial with ``coeffs`` (highest degree first) at x, starting
    from the leading coefficient."""
    value, *rest = coeffs
    for c in rest:
        value = value * x + c
    return value


#: tau1 nodes of the interpolation (every coefficient has degree <= 4 in
#: tau1), and the node that checks the degree bound
_NODES = tuple(Fraction(k, 4) for k in range(5))
_CHECK = Fraction(1, 3)


def _lagrange_basis(nodes) -> list:
    """Coefficients, highest degree first, of the Lagrange basis polynomials
    of the nodes: the i-th is 1 at node i and 0 at the others."""
    basis = []
    for i, xi in enumerate(nodes):
        poly, denom = [Fraction(1)], Fraction(1)
        for j, xj in enumerate(nodes):
            if j != i:
                poly = [a - xj * b for a, b in zip(poly + [0], [0] + poly)]
                denom *= xi - xj
        basis.append([c / denom for c in poly])
    return basis


@cache
def _tau1_polynomials(name: str) -> tuple:
    """Exact polynomials (A, B, C, W) in tau1, each highest degree first, with

        name(tau1, tau2, tau3) = A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3.

    Derived from the functional itself, evaluated exactly on rational
    points; a sixth node checks the degree bound and the point
    (tau2, tau3) = (1/2, 1/2) the form in tau2 and tau3.
    """
    def at(t1, tau2, tau3):
        return evaluate_functional(name, CaratheodoryPoint(t1, tau2, tau3)).value

    basis = _lagrange_basis(_NODES)
    *at_nodes, at_check = (form_coefficients(partial(at, t)) for t in (*_NODES, _CHECK))
    polys = tuple(tuple(sum(y * b[k] for y, b in zip(column, basis)) for k in range(len(_NODES)))
                  for column in zip(*at_nodes))
    A, B, C, W = (_horner(p, _CHECK) for p in polys)
    h = Fraction(1, 2)
    if ((A, B, C, W) != at_check
            or A + B * h + C * h * h + W * (1 - h * h) * h != at(_CHECK, h, h)):
        raise ValueError(f"{name} is not A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3 "
                         "with coefficients of degree <= 4 in tau1")
    return polys


@dataclass(frozen=True)
class Theorem:
    """One sharp bound and everything needed to certify it.

    The bounded functional is ``|modulus| - |offset|``; only the moduli
    differences have an ``offset``, which depends on tau1 alone.
    """

    id: str
    functional: str  # the evaluate_functional name it bounds
    bound: Bound
    witness: tuple  # extremal (tau1, tau2, tau3)
    modulus: str
    offset: str | None = None

    @property
    def sign(self) -> float:  # the search maximizes sign * objective
        return 1.0 if self.bound.direction == "max" else -1.0

    @cached_property
    def _rows(self) -> np.ndarray:
        """The tau1 polynomials the profile reads, highest degree first, as
        the rows of one float array: A and B, then C and W unless both are
        zero, then the offset of a moduli difference.  One :func:`_horner`
        pass over its transpose evaluates them all; derived on first use."""
        A, B, *CW = _tau1_polynomials(self.modulus)
        rows = [A, B]
        if any(any(p) for p in CW):
            if self.sign < 0:
                raise ValueError(f"{self.id}: only |A + B tau2| has a closed-form infimum here")
            rows += CW
        if self.offset is not None:
            offset, *rest = _tau1_polynomials(self.offset)
            if any(any(p) for p in rest):
                raise ValueError(f"{self.offset} depends on tau2 or tau3")
            rows.append(offset)
        return np.array([[float(c) for c in p] for p in rows])

    def profile(self, t1) -> np.ndarray:
        """``sign`` times the extremum over (tau2, tau3) at each tau1: the
        function of tau1 alone that the search maximizes."""
        rows = _horner(self._rows.T[:, :, None], t1)
        A, B = rows[:2]
        if len(rows) >= 4:  # C and W are kept
            modulus = form_max(*rows[:4])
        elif self.sign > 0:
            modulus = np.abs(A) + np.abs(B)
        else:
            modulus = np.maximum(0.0, np.abs(A) - np.abs(B))
        if self.offset is not None:
            modulus = modulus - np.abs(rows[-1])
        return self.sign * modulus

    def maximizer(self, t1: float) -> CaratheodoryPoint:
        """The exact (tau2, tau3) where ``profile`` is attained at tau1."""
        rows = _horner(self._rows.T, t1).tolist()
        A, B = rows[:2]
        if len(rows) >= 4:
            return CaratheodoryPoint(t1, *form_argmax(*rows[:4]))
        if B == 0:
            tau2 = 0.0
        elif self.sign > 0:  # B tau2 lines up with A
            tau2 = math.copysign(1.0, A * B)
        elif abs(B) >= abs(A):  # A + B tau2 = 0 inside the disk
            tau2 = -A / B
        else:
            tau2 = -math.copysign(1.0, A * B)
        return CaratheodoryPoint(t1, complex(tau2), 0j)


_F0, _F1 = Fraction(0), Fraction(1)

# |Gamma1| = |gamma1| = |c1|/4, but the two theorems are reported separately.
THEOREMS = {th.id: th for th in (
    Theorem("gamma1", "gamma1", Bound("1/2", 0.5, "max"), (_F1, _F0, _F0), "gamma1"),
    Theorem("gamma2", "gamma2", Bound("1/4", 0.25, "max"), (_F0, _F1, _F0), "gamma2"),
    Theorem("gamma3", "gamma3", Bound("1/6", 1.0 / 6.0, "max"), (_F0, _F0, _F1), "gamma3"),
    Theorem("H21_log", "H21_log", Bound("1/16", 0.0625, "max"), (_F0, _F1, _F0), "H21_log"),
    Theorem("Gamma1", "Gamma1", Bound("1/2", 0.5, "max"), (_F1, _F0, _F0), "Gamma1"),
    Theorem("Gamma2", "Gamma2", Bound("3/8", 0.375, "max"), (_F1, _F0, _F0), "Gamma2"),
    Theorem("H21_inverse", "H21_log_inverse", Bound("3/44", 3.0 / 44.0, "max"),
            (math.sqrt(2.0 / 11.0), 1.0, 1.0), "H21_log_inverse"),
    Theorem("diff_gamma_upper", "diff_gamma", Bound("1/4", 0.25, "max"),
            (_F0, _F1, _F0), "gamma2", "gamma1"),
    Theorem("diff_gamma_lower", "diff_gamma",
            Bound("-1/sqrt(6)", -1.0 / math.sqrt(6.0), "min"),
            (math.sqrt(2.0 / 3.0), -1.0, 0.0), "gamma2", "gamma1"),
    Theorem("diff_Gamma_upper", "diff_Gamma", Bound("1/4", 0.25, "max"),
            (_F0, _F1, _F0), "Gamma2", "Gamma1"),
    Theorem("diff_Gamma_lower", "diff_Gamma",
            Bound("-1/sqrt(10)", -1.0 / math.sqrt(10.0), "min"),
            (math.sqrt(2.0 / 5.0), 1.0, 0.0), "Gamma2", "Gamma1"),
)}

THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id]


def verify(theorem_id: str, cfg: SearchConfig = SearchConfig()) -> VerificationReport:
    """Search one target's full domain and report attainment and soundness.

    An exceeded bound comes back as a failed report, never an exception.
    """
    th = _theorem(theorem_id)
    value, t1, evals = tau1_argmax(th.profile, cfg.grid_tau1, cfg.refinement_rounds,
                                   cfg.shrink_factor)
    empirical = th.sign * value
    gap = th.sign * (th.bound.value - empirical)
    return VerificationReport(
        theorem_id=theorem_id,
        bound=th.bound,
        empirical_extremum=empirical,
        maximizer=th.maximizer(t1),
        gap=gap,
        evaluations=evals,
        passed=-cfg.tolerance_exceed <= gap <= cfg.tolerance_attain,
    )


def verify_all(cfg: SearchConfig = SearchConfig()) -> list[VerificationReport]:
    """Run every target in canonical order; deterministic given the config."""
    return [verify(theorem_id, cfg) for theorem_id in THEOREM_IDS]


def sharpness_witness(theorem_id: str) -> tuple[CaratheodoryPoint, FunctionalValue]:
    """The exact extremal parameter triple of a target and its value there.

    Witnesses with rational coordinates evaluate exactly; the surd-coordinate
    ones land within float rounding of their algebraic constants.
    """
    th = _theorem(theorem_id)
    pt = CaratheodoryPoint(*th.witness)
    return pt, evaluate_functional(th.functional, coeffs_from_point(pt))
