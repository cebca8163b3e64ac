"""Deterministic global search certifying each sharp bound.

Every target is searched over (tau1, |tau2|, arg tau2) -- with the
dimensions its functional does not read pinned to 0 -- by one full grid
scan followed by rescans of a shrinking window around the incumbent.
Radius grids always contain r = 1 and angle grids always contain 0, so
boundary extrema are exact grid members.

The three-parameter functionals are affine in tau3 with a real weight,
``|head(tau1, tau2) + w(tau1, tau2) tau3|``, so their supremum over the
closed disk is ``|head| + |w|``, attained at ``tau3 = head/|head|`` (any
unimodular tau3 when head = 0; 1 is reported).  tau3 is therefore
eliminated in closed form rather than scanned, and ``evaluations`` counts
(tau1, tau2) points for every target.  ``objective_slice`` still evaluates
the affine form on an explicit tau3 grid, as the brute-force oracle of that
reduction.  Scans are pure and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._search import unit_direction, window_grid
from .caratheodory import CaratheodoryPoint, coeffs_from_point
from .functionals import FunctionalValue, evaluate_functional

THEOREM_IDS = (
    "gamma1",
    "gamma2",
    "gamma3",
    "H21_log",
    "Gamma1",
    "Gamma2",
    "H21_inverse",
    "diff_gamma_upper",
    "diff_gamma_lower",
    "diff_Gamma_upper",
    "diff_Gamma_lower",
)

__all__ = [
    "THEOREM_IDS",
    "Bound",
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


# --- vectorized objectives -------------------------------------------------
# Each objective returns the quantity being MAXIMIZED (minimum targets are
# searched on the negated signed value).  tau2/tau3 enter as flat complex
# grids; tau1 broadcasts as a column.  The three-parameter functionals are
# affine in tau3 with a real weight, so they are described by
# (head(tau1, tau2), weight(tau1, tau2), scale): the objective matrix is
# |head + weight * tau3| * scale and its sup over the disk is
# (|head| + |weight|) * scale.

def _c12(t1, tau2):
    c1 = 2.0 * t1
    u = 1.0 - t1 * t1
    c2 = 2.0 * t1 * t1 + 2.0 * u * tau2
    return c1, c2, u


def _obj_gamma1(t1):
    return np.abs(2.0 * t1) / 4.0


def _obj_gamma2(t1, tau2):
    c1, c2, _ = _c12(t1, tau2)
    return np.abs(c2 - c1 * c1 / 4.0) / 8.0


def _obj_Gamma2(t1, tau2):
    c1, c2, _ = _c12(t1, tau2)
    return np.abs(c2 - 1.25 * c1 * c1) / 8.0


def _obj_diff_gamma(t1, tau2, sign):
    c1, c2, _ = _c12(t1, tau2)
    return sign * (np.abs(-c1 * c1 / 32.0 + c2 / 8.0) - np.abs(c1) / 4.0)


def _obj_diff_Gamma(t1, tau2, sign):
    c1, c2, _ = _c12(t1, tau2)
    return sign * (np.abs(5.0 * c1 * c1 / 32.0 - c2 / 8.0) - np.abs(c1) / 4.0)


def _tau3_weight(t1, tau2):
    return 1.0 - (tau2.real ** 2 + tau2.imag ** 2)


def _parts_gamma3(t1, tau2):
    c1, c2, u = _c12(t1, tau2)
    base3 = 2.0 * t1 ** 3 + 4.0 * u * t1 * tau2 - 2.0 * u * t1 * tau2 * tau2
    return base3 - c1 * c2 / 2.0, 2.0 * u * _tau3_weight(t1, tau2), 1.0 / 12.0


def _hankel_head(t1, tau2, quartic, quad_tau2):
    u = 1.0 - t1 * t1
    return (
        quartic * t1 ** 4
        + quad_tau2 * t1 * t1 * tau2 * u
        - 4.0 * tau2 * tau2 * (3.0 + t1 * t1) * u
    )


def _parts_h21_log(t1, tau2):
    w = 16.0 * t1 * (1.0 - t1 * t1) * _tau3_weight(t1, tau2)
    return _hankel_head(t1, tau2, -3.0, 4.0), w, 1.0 / 192.0


def _parts_h21_inverse(t1, tau2):
    w = 16.0 * t1 * (1.0 - t1 * t1) * _tau3_weight(t1, tau2)
    return _hankel_head(t1, tau2, 9.0, -20.0), w, 1.0 / 192.0


def _affine_matrix(parts, t1, tau2, tau3):
    head, w, scale = parts(float(t1), np.asarray(tau2, dtype=complex))
    return np.abs(head[:, None] + w[:, None] * np.asarray(tau3)[None, :]) * scale


def _tau3_sup(parts):
    def objective(t1, tau2):
        head, w, scale = parts(t1, tau2)
        return (np.abs(head) + np.abs(w)) * scale
    return objective


def _maximizing_tau3(parts, t1: float, tau2: complex) -> complex:
    head, _, _ = parts(t1, np.array([tau2]))
    return unit_direction(complex(head[0]))


@dataclass(frozen=True)
class _Target:
    dims: int  # 1, 2 or 3 active tau parameters
    sign: float  # +1 maximize, -1 minimize the signed value
    bound: Bound
    objective: object  # the maximized array; tau3 already eliminated for dims 3
    parts: object = None  # dims 3: (head, weight, scale) of the affine tau3 form


def _affine_target(bound: Bound, parts) -> _Target:
    return _Target(3, 1.0, bound, _tau3_sup(parts), parts)


_SQRT6 = math.sqrt(6.0)
_SQRT10 = math.sqrt(10.0)

_TARGETS = {
    "gamma1": _Target(1, 1.0, Bound("1/2", 0.5, "max"), _obj_gamma1),
    "gamma2": _Target(2, 1.0, Bound("1/4", 0.25, "max"), _obj_gamma2),
    "gamma3": _affine_target(Bound("1/6", 1.0 / 6.0, "max"), _parts_gamma3),
    "H21_log": _affine_target(Bound("1/16", 0.0625, "max"), _parts_h21_log),
    "Gamma1": _Target(1, 1.0, Bound("1/2", 0.5, "max"), _obj_gamma1),
    "Gamma2": _Target(2, 1.0, Bound("3/8", 0.375, "max"), _obj_Gamma2),
    "H21_inverse": _affine_target(Bound("3/44", 3.0 / 44.0, "max"), _parts_h21_inverse),
    "diff_gamma_upper": _Target(2, 1.0, Bound("1/4", 0.25, "max"),
                                lambda t1, tau2: _obj_diff_gamma(t1, tau2, 1.0)),
    "diff_gamma_lower": _Target(2, -1.0, Bound("-1/sqrt(6)", -1.0 / _SQRT6, "min"),
                                lambda t1, tau2: _obj_diff_gamma(t1, tau2, -1.0)),
    "diff_Gamma_upper": _Target(2, 1.0, Bound("1/4", 0.25, "max"),
                                lambda t1, tau2: _obj_diff_Gamma(t1, tau2, 1.0)),
    "diff_Gamma_lower": _Target(2, -1.0, Bound("-1/sqrt(10)", -1.0 / _SQRT10, "min"),
                                lambda t1, tau2: _obj_diff_Gamma(t1, tau2, -1.0)),
}

# |Gamma1| = |gamma1| = |c1|/4, but the two theorems are reported separately.


def objective_slice(theorem_id: str, t1: float, tau2: np.ndarray | None = None,
                    tau3: np.ndarray | None = None) -> np.ndarray:
    """Evaluate one target's search objective on a tau1 slice.

    For three-parameter targets pass flat complex ``tau2`` and ``tau3`` grids
    and get the (len(tau2), len(tau3)) objective matrix, or omit ``tau3`` to
    get the closed-form sup over the closed tau3 disk that the search scans;
    two-parameter targets ignore ``tau3``; one-parameter targets ignore both.
    """
    target = _TARGETS[theorem_id]
    if target.dims == 1:
        return np.asarray(target.objective(np.asarray(t1, dtype=float)))
    if target.dims == 2 or tau3 is None:
        return np.asarray(target.objective(float(t1), np.asarray(tau2)))
    return _affine_matrix(target.parts, t1, tau2, tau3)


def _polar(rs, ths):
    return (rs[:, None] * np.exp(1j * ths)[None, :]).ravel()


@dataclass
class _Incumbent:
    value: float
    t1: float
    r2: float
    th2: float


def _scan1(obj, t1s):
    vals = obj(t1s)
    i = int(np.argmax(vals))
    return _Incumbent(float(vals[i]), float(t1s[i]), 0.0, 0.0), vals.size


def _scan2(obj, t1s, rs, ths):
    tau2 = _polar(rs, ths)
    vals = obj(t1s[:, None], tau2[None, :])
    flat = int(np.argmax(vals))
    i1, i2 = divmod(flat, tau2.size)
    ir, ith = divmod(i2, ths.size)
    inc = _Incumbent(float(vals.flat[flat]), float(t1s[i1]), float(rs[ir]), float(ths[ith]))
    return inc, vals.size


def _initial_axes(cfg: SearchConfig, dims: int):
    t1s = np.linspace(0.0, 1.0, cfg.grid_tau1)
    rs = np.linspace(0.0, 1.0, cfg.grid_r)
    ths = np.linspace(0.0, 2.0 * np.pi, cfg.grid_theta, endpoint=False)
    return (t1s,) if dims == 1 else (t1s, rs, ths)


def _refined_axes(inc: _Incumbent, cfg: SearchConfig, round_no: int, dims: int):
    w = cfg.shrink_factor ** round_no
    t1s = window_grid(inc.t1, w, cfg.grid_tau1, 0.0, 1.0)
    if dims == 1:
        return (t1s,)
    rs2 = window_grid(inc.r2, w, cfg.grid_r, 0.0, 1.0)
    ths2 = window_grid(inc.th2, 2.0 * np.pi * w, cfg.grid_theta)
    return t1s, rs2, ths2


def _search(target: _Target, cfg: SearchConfig):
    scan = _scan1 if target.dims == 1 else _scan2
    incumbent, evals = scan(target.objective, *_initial_axes(cfg, target.dims))
    for k in range(1, cfg.refinement_rounds + 1):
        cand, n = scan(target.objective, *_refined_axes(incumbent, cfg, k, target.dims))
        evals += n
        if cand.value > incumbent.value:
            incumbent = cand
    return incumbent, evals


def _point_of(target: _Target, inc: _Incumbent) -> CaratheodoryPoint:
    tau2 = inc.r2 * complex(math.cos(inc.th2), math.sin(inc.th2))
    tau3 = 0j if target.parts is None else _maximizing_tau3(target.parts, inc.t1, tau2)
    return CaratheodoryPoint(inc.t1, tau2, tau3)


def verify(theorem_id: str, cfg: SearchConfig = SearchConfig()) -> VerificationReport:
    """Search one target's full domain and report attainment and soundness.

    An exceeded bound comes back as a failed report, never an exception.
    """
    if theorem_id not in _TARGETS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    target = _TARGETS[theorem_id]
    incumbent, evals = _search(target, cfg)
    empirical = target.sign * incumbent.value
    if target.bound.direction == "max":
        gap = target.bound.value - empirical
    else:
        gap = empirical - target.bound.value
    passed = -cfg.tolerance_exceed <= gap <= cfg.tolerance_attain
    return VerificationReport(
        theorem_id=theorem_id,
        bound=target.bound,
        empirical_extremum=empirical,
        maximizer=_point_of(target, incumbent),
        gap=gap,
        evaluations=evals,
        passed=passed,
    )


def verify_all(cfg: SearchConfig = SearchConfig()) -> list[VerificationReport]:
    """Run every target in canonical order; deterministic given the config."""
    return [verify(theorem_id, cfg) for theorem_id in THEOREM_IDS]


# --- sharpness witnesses ----------------------------------------------------

_F0, _F1 = Fraction(0), Fraction(1)
_WITNESS = {
    "gamma1": ("gamma1", (_F1, _F0, _F0)),
    "gamma2": ("gamma2", (_F0, _F1, _F0)),
    "gamma3": ("gamma3", (_F0, _F0, _F1)),
    "H21_log": ("H21_log", (_F0, _F1, _F0)),
    "Gamma1": ("Gamma1", (_F1, _F0, _F0)),
    "Gamma2": ("Gamma2", (_F1, _F0, _F0)),
    "H21_inverse": ("H21_log_inverse", (math.sqrt(2.0 / 11.0), 1.0, 1.0)),
    "diff_gamma_upper": ("diff_gamma", (_F0, _F1, _F0)),
    "diff_gamma_lower": ("diff_gamma", (math.sqrt(2.0 / 3.0), -1.0, 0.0)),
    "diff_Gamma_upper": ("diff_Gamma", (_F0, _F1, _F0)),
    "diff_Gamma_lower": ("diff_Gamma", (math.sqrt(2.0 / 5.0), 1.0, 0.0)),
}


def sharpness_witness(theorem_id: str) -> tuple[CaratheodoryPoint, FunctionalValue]:
    """The exact extremal parameter triple of a target and its value there.

    Witnesses with rational coordinates evaluate exactly; the surd-coordinate
    ones land within float rounding of their algebraic constants.
    """
    if theorem_id not in _WITNESS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    functional, taus = _WITNESS[theorem_id]
    pt = CaratheodoryPoint(*taus)
    value = evaluate_functional(functional, coeffs_from_point(pt))
    return pt, value
