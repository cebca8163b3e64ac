"""Deterministic global search certifying each sharp bound.

``THEOREMS`` holds one :class:`Theorem` per bound (functional, sharp
constant and direction, exact witness, search objective); ``verify``,
``objective_slice`` and ``sharpness_witness`` read nothing else.  Each
target is searched by ``_search.grid_argmax`` over (tau1, |tau2|, arg tau2),
or tau1 alone: one full grid scan, then rescans of a shrinking window around
the incumbent.  Radius grids always contain r = 1 and angle grids 0, so
boundary extrema are exact grid members.

The three-parameter functionals are affine in tau3 with a real weight,
``|head(tau1, tau2) + w(tau1, tau2) tau3|``, so their supremum over the
closed disk is ``|head| + |w|``, attained at ``tau3 = head/|head|`` (1 when
head = 0).  tau3 is eliminated in closed form rather than scanned, and
``evaluations`` counts (tau1, tau2) points.  ``objective_slice`` still
evaluates the affine form on an explicit tau3 grid, as the brute-force
oracle of that reduction.  Scans are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from ._search import grid_argmax, tau_argmax, unit_direction
from .caratheodory import CaratheodoryPoint, c12, c3_parts, coeffs_from_point
from .functionals import (
    FunctionalValue,
    diff_gamma_c,
    diff_Gamma_c,
    evaluate_functional,
    hankel_tau_parts,
)

__all__ = [
    "THEOREMS",
    "THEOREM_IDS",
    "Bound",
    "Theorem",
    "SearchConfig",
    "VerificationReport",
    "objective_slice",
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
    grid_r: int = 21
    grid_theta: int = 72
    refinement_rounds: int = 6
    shrink_factor: float = 0.35
    tolerance_attain: float = 1e-4
    tolerance_exceed: float = 1e-9

    def __post_init__(self):
        for name in ("grid_tau1", "grid_r", "grid_theta"):
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


@dataclass(frozen=True)
class Theorem:
    """One sharp bound and everything needed to certify it."""

    id: str
    functional: str  # the evaluate_functional name it bounds
    bound: Bound
    witness: tuple  # extremal (tau1, tau2, tau3)
    dims: int  # 1, 2 or 3 active tau parameters
    objective: Callable  # value on (tau1[, tau2]); dims 3: its sup over tau3
    parts: Callable | None = None  # dims 3: (head, w, scale) of |head + w tau3| scale

    @property
    def sign(self) -> float:  # the search maximizes sign * objective
        return 1.0 if self.bound.direction == "max" else -1.0

    def maximized(self, *args):
        return self.objective(*args) if self.sign > 0 else -self.objective(*args)


# --- vectorized objectives -------------------------------------------------
# tau2 enters as a complex grid and tau1 broadcasts against it.

def _obj_gamma1(t1):
    return np.abs(2.0 * t1) / 4.0


def _obj_gamma2(t1, tau2):
    c1, c2 = c12(t1, tau2)
    return np.abs(c2 - c1 * c1 / 4.0) / 8.0


def _obj_Gamma2(t1, tau2):
    c1, c2 = c12(t1, tau2)
    return np.abs(c2 - 1.25 * c1 * c1) / 8.0


def _of_c12(form):
    """A raw (c1, c2) form as an objective on (tau1, tau2)."""
    return lambda t1, tau2: form(*c12(t1, tau2))


def _parts_gamma3(t1, tau2):
    c1, c2 = c12(t1, tau2)
    head, w = c3_parts(t1, tau2)
    return head - c1 * c2 / 2.0, w, 1.0 / 12.0


def _parts_h21_log(t1, tau2):
    return (*hankel_tau_parts(t1, tau2, -3, 4), 1.0 / 192.0)


def _parts_h21_inverse(t1, tau2):
    return (*hankel_tau_parts(t1, tau2, 9, -20), 1.0 / 192.0)


def _affine(theorem_id, functional, bound, witness, parts) -> Theorem:
    def tau3_sup(t1, tau2):
        head, w, scale = parts(t1, tau2)
        return (np.abs(head) + np.abs(w)) * scale
    return Theorem(theorem_id, functional, bound, witness, 3, tau3_sup, parts)


_F0, _F1 = Fraction(0), Fraction(1)

# |Gamma1| = |gamma1| = |c1|/4, but the two theorems are reported separately.
THEOREMS = {th.id: th for th in (
    Theorem("gamma1", "gamma1", Bound("1/2", 0.5, "max"), (_F1, _F0, _F0), 1, _obj_gamma1),
    Theorem("gamma2", "gamma2", Bound("1/4", 0.25, "max"), (_F0, _F1, _F0), 2, _obj_gamma2),
    _affine("gamma3", "gamma3", Bound("1/6", 1.0 / 6.0, "max"), (_F0, _F0, _F1), _parts_gamma3),
    _affine("H21_log", "H21_log", Bound("1/16", 0.0625, "max"), (_F0, _F1, _F0), _parts_h21_log),
    Theorem("Gamma1", "Gamma1", Bound("1/2", 0.5, "max"), (_F1, _F0, _F0), 1, _obj_gamma1),
    Theorem("Gamma2", "Gamma2", Bound("3/8", 0.375, "max"), (_F1, _F0, _F0), 2, _obj_Gamma2),
    _affine("H21_inverse", "H21_log_inverse", Bound("3/44", 3.0 / 44.0, "max"),
            (math.sqrt(2.0 / 11.0), 1.0, 1.0), _parts_h21_inverse),
    Theorem("diff_gamma_upper", "diff_gamma", Bound("1/4", 0.25, "max"),
            (_F0, _F1, _F0), 2, _of_c12(diff_gamma_c)),
    Theorem("diff_gamma_lower", "diff_gamma",
            Bound("-1/sqrt(6)", -1.0 / math.sqrt(6.0), "min"),
            (math.sqrt(2.0 / 3.0), -1.0, 0.0), 2, _of_c12(diff_gamma_c)),
    Theorem("diff_Gamma_upper", "diff_Gamma", Bound("1/4", 0.25, "max"),
            (_F0, _F1, _F0), 2, _of_c12(diff_Gamma_c)),
    Theorem("diff_Gamma_lower", "diff_Gamma",
            Bound("-1/sqrt(10)", -1.0 / math.sqrt(10.0), "min"),
            (math.sqrt(2.0 / 5.0), 1.0, 0.0), 2, _of_c12(diff_Gamma_c)),
)}

THEOREM_IDS = tuple(THEOREMS)


def _theorem(theorem_id: str) -> Theorem:
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    return THEOREMS[theorem_id]


def objective_slice(theorem_id: str, t1: float, tau2: np.ndarray | None = None,
                    tau3: np.ndarray | None = None) -> np.ndarray:
    """Evaluate one target's maximized search objective on a tau1 slice.

    For three-parameter targets pass flat complex ``tau2`` and ``tau3`` grids
    and get the (len(tau2), len(tau3)) objective matrix, or omit ``tau3`` to
    get the closed-form sup over the closed tau3 disk that the search scans;
    two-parameter targets ignore ``tau3``; one-parameter targets ignore both.
    Infimum targets come back negated, as the search maximizes them.
    """
    th = _theorem(theorem_id)
    if th.dims == 1:
        return np.asarray(th.maximized(np.asarray(t1, dtype=float)))
    if th.dims == 2 or tau3 is None:
        return np.asarray(th.maximized(float(t1), np.asarray(tau2)))
    head, w, scale = th.parts(float(t1), np.asarray(tau2, dtype=complex))
    return np.abs(head[:, None] + w[:, None] * np.asarray(tau3)[None, :]) * scale


def _search(th: Theorem, cfg: SearchConfig):
    rounds, shrink = cfg.refinement_rounds, cfg.shrink_factor
    if th.dims == 1:
        return grid_argmax(th.maximized, [(0.0, 1.0, cfg.grid_tau1, False)], rounds, shrink)
    return tau_argmax(th.maximized, cfg.grid_tau1, cfg.grid_r, cfg.grid_theta, rounds, shrink)


def _maximizing_tau3(parts, t1: float, tau2: complex) -> complex:
    head, _, _ = parts(t1, np.array([tau2]))
    return unit_direction(complex(head[0]))


def _maximizer(th: Theorem, point: tuple) -> CaratheodoryPoint:
    t1, r, theta = point if th.dims > 1 else (point[0], 0.0, 0.0)
    tau2 = r * complex(math.cos(theta), math.sin(theta))
    tau3 = 0j if th.parts is None else _maximizing_tau3(th.parts, t1, tau2)
    return CaratheodoryPoint(t1, tau2, tau3)


def verify(theorem_id: str, cfg: SearchConfig = SearchConfig()) -> VerificationReport:
    """Search one target's full domain and report attainment and soundness.

    An exceeded bound comes back as a failed report, never an exception.
    """
    th = _theorem(theorem_id)
    value, point, evals = _search(th, cfg)
    empirical = th.sign * value
    gap = th.sign * (th.bound.value - empirical)
    return VerificationReport(
        theorem_id=theorem_id,
        bound=th.bound,
        empirical_extremum=empirical,
        maximizer=_maximizer(th, point),
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
