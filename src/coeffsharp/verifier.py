"""Deterministic global search certifying each sharp bound.

``THEOREMS`` holds one :class:`Theorem` per bound (functional, sharp
constant and direction, exact witness); ``verify`` and
``sharpness_witness`` read nothing else.

Every target is searched as a 1-D profile in tau1, as the paper proves the
bounds.  With ``c1 = 2 tau1`` real, each functional the bounds are about is

    A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3

with real polynomials A, B, C, W in tau1, derived once per functional from
its closed form itself, run on tau1 as an exact ``Fraction`` polynomial: the
parameter map gives c1..c3 as polynomials in tau1 at tau2 in {0, 1, -1} and
tau3 in {0, 1}, which fix A, B, C and W, and the point (1/2, 1/2) checks the
form as an identity in tau1.  tau3 and tau2 are then eliminated in closed
form:

* with C = W = 0 (the two-parameter targets) the sup over the tau2 disk is
  ``|A| + |B|`` and the inf ``max(0, |A| - |B|)``;
* otherwise the sup over tau3 is ``|A + B tau2 + C tau2^2| + |W| (1 -
  |tau2|^2)``, and its sup over tau2 is ``|W| Y(A/|W|, B/|W|, C/|W|)`` by
  Lemma Y (``lemmas.form_max``), the maximum modulus on the circle where
  W = 0.

The moduli differences subtract ``|offset|``, a function of tau1 alone.
A theorem keeps, as floats, only the polynomials its profile reads.
``_search.tau1_argmax`` scans the profile over tau1 in [0, 1] (one full grid,
then windows around the incumbent that shrink by ``SHRINK`` per round), so
``evaluations`` counts tau1 points, and the reported maximizer carries the
exact maximizing tau2 and tau3.  A config sets only counts: the grid size and
the number of rounds (``SearchConfig.grid_r`` and ``grid_theta`` are accepted
and validated but no longer used).  The pass rule is fixed: the search attains
the constant within ``ATTAIN_TOL`` and never exceeds it by more than
``EXCEED_TOL``.  Scans are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import SimpleNamespace

import numpy as np

from ._search import tau1_argmax
from .caratheodory import CaratheodoryPoint, c3_parts, c12, coeffs_from_point
from .functionals import _FUNCTIONALS, FunctionalValue, evaluate_functional
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


#: the window shrink per refinement round of every search
SHRINK = 0.35
#: a report passes when the search attains the constant within ATTAIN_TOL
#: and never exceeds it by more than EXCEED_TOL
ATTAIN_TOL, EXCEED_TOL = 1e-4, 1e-9
#: most refinement rounds of a config: round 64's window is narrower than
#: 1e-29, and every round rescans its window, collapsed or not
REFINEMENT_ROUNDS_MAX = 64
#: largest tau1 grid of a config: a scan holds a few arrays of that many
#: points, so the cap bounds its memory
TAU1_GRID_MAX = 100_000
#: fewest columns of a theorem's rows, those of a quartic: a shorter row gets
#: leading zeros, which change no bit on [0, 1].  Trimmed rows would scan the
#: 2-parameter targets about a fifth faster; that waits until the benchmark's
#: peak RSS stops growing with the number of passes it runs.
ROW_WIDTH = 5


@dataclass(frozen=True)
class SearchConfig:
    grid_tau1: int = 101
    # unused since the search is 1-D in tau1; still accepted and validated
    # because the benchmark's search configs (perfbench/workloads.py) pass them
    grid_r: int = 21
    grid_theta: int = 72
    refinement_rounds: int = 6

    def __post_init__(self):
        if not 2 <= self.grid_tau1 <= TAU1_GRID_MAX:
            raise ValueError(f"grid_tau1 must lie in [2, {TAU1_GRID_MAX}]")
        for name in ("grid_r", "grid_theta"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        if not 0 <= self.refinement_rounds <= REFINEMENT_ROUNDS_MAX:
            raise ValueError(f"refinement_rounds must lie in [0, {REFINEMENT_ROUNDS_MAX}]")


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


@cache
def _coeffs_on_tau1(tau2, tau3) -> SimpleNamespace:
    """c1, c2, c3 at (tau1, tau2, tau3) as exact polynomials in tau1, for
    rational tau2 and tau3; mapped once and shared by every functional."""
    from numpy.polynomial import Polynomial  # only the derivation needs it

    t1 = Polynomial(np.array([Fraction(0), Fraction(1)], dtype=object))
    c1, c2 = c12(t1, tau2)
    head, w = c3_parts(t1, tau2)
    return SimpleNamespace(c1=c1, c2=c2, c3=head + w * tau3)


@cache
def _tau1_polynomials(name: str) -> tuple:
    """Exact polynomials (A, B, C, W) in tau1, each highest degree first, with

        name(tau1, tau2, tau3) = A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3.

    The functional's closed form runs on c1..c3 as polynomials in tau1, so
    every coefficient is exact whatever its degree; the point (tau2, tau3) =
    (1/2, 1/2) checks the form in tau2 and tau3, as an identity in tau1.
    """
    form = _FUNCTIONALS[name][1]

    def at(tau2, tau3):
        return form(_coeffs_on_tau1(tau2, tau3))

    A, B, C, W = form_coefficients(at)
    h = Fraction(1, 2)
    if A + B * h + C * h * h + W * (1 - h * h) * h != at(h, h):
        raise ValueError(f"{name} is not A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3")
    return tuple(tuple(p.coef[::-1].tolist()) for p in (A, B, C, W))


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
        width = max(ROW_WIDTH, *map(len, rows))
        return np.array([[0.0] * (width - len(p)) + [float(c) for c in p] for p in rows])

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
    value, t1, evals = tau1_argmax(th.profile, cfg.grid_tau1, cfg.refinement_rounds, SHRINK)
    empirical = th.sign * value
    gap = th.sign * (th.bound.value - empirical)
    return VerificationReport(
        theorem_id=theorem_id,
        bound=th.bound,
        empirical_extremum=empirical,
        maximizer=th.maximizer(t1),
        gap=gap,
        evaluations=evals,
        passed=-EXCEED_TOL <= gap <= ATTAIN_TOL,
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
