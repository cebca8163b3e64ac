"""Grid search: witnesses, soundness on coarse grids, determinism, slices."""

import math
import re
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from coeffsharp import verifier
from coeffsharp.caratheodory import CaratheodoryPoint, c3_parts, c12, coeffs_from_point
from coeffsharp.functionals import _FUNCTIONALS, evaluate_functional
from coeffsharp.lemmas import form_max, form_tau3
from coeffsharp.verifier import (
    EXCEED_TOL,
    REFINEMENT_ROUNDS_MAX,
    TAU1_GRID_MAX,
    THEOREM_IDS,
    THEOREMS,
    SearchConfig,
    _tau1_polynomials,
    sharpness_witness,
    verify,
    verify_all,
)

from case_profiles import TAU_SPLIT, Psi

COARSE = SearchConfig(grid_tau1=13, grid_r=5, grid_theta=8, refinement_rounds=2)

# the three-parameter targets and the scalar functional each one bounds
THREE_PARAM = {"gamma3": "gamma3", "H21_log": "H21_log", "H21_inverse": "H21_log_inverse"}
TWO_PARAM = ("gamma2", "Gamma2", "diff_gamma_upper", "diff_gamma_lower",
             "diff_Gamma_upper", "diff_Gamma_lower")

# dense explicit tau3 grid of the brute-force oracle: radii include 1 and
# adjacent angles are 2 pi / 144 apart, so some grid tau3 lies within pi / 144
# of the maximizing direction on the unit circle and the grid maximum is at
# least cos(pi / 144) times the closed-form sup
TAU3_ANGLES = 144
DENSE_TAU3 = (np.linspace(0.0, 1.0, 41)[:, None]
              * np.exp(1j * np.linspace(0.0, 2 * np.pi, TAU3_ANGLES, endpoint=False))[None, :]
              ).ravel()
TAU3_GRID_SLACK = 1.0 - math.cos(math.pi / TAU3_ANGLES)


def polyval_rows(th, t1):
    """A, B, C, W and the offset (0 without one) at t1, each by ``np.polyval``
    of its derived polynomial: the oracle of the stacked Horner pass."""
    polys = _tau1_polynomials(th.modulus)
    offset = (0,) if th.offset is None else _tau1_polynomials(th.offset)[0]
    return [np.polyval([float(c) for c in p], t1) for p in (*polys, offset)]


def objective_slice(theorem_id, t1, tau2, tau3=None):
    """``sign * (|modulus| - |offset|)`` at one tau1.  With a ``tau3`` grid, the
    modulus's closed form on the mapped (tau2, tau3) grid: the oracle of the
    derived polynomials and of the tau3 step.  Without, its sup over the tau3
    disk, ``|A + B tau2 + C tau2^2| + |W| (1 - |tau2|^2)``: the oracle of the tau2 step."""
    th = THEOREMS[theorem_id]
    A, B, C, W, offset = polyval_rows(th, t1)
    if tau3 is None:
        modulus = np.abs(A + B * tau2 + C * tau2 * tau2) + abs(W) * (1 - np.abs(tau2) ** 2)
    else:
        c1, c2 = c12(t1, tau2[:, None])
        head, w = c3_parts(t1, tau2[:, None])
        c = SimpleNamespace(c1=c1, c2=c2, c3=head + w * tau3[None, :])
        modulus = np.abs(_FUNCTIONALS[th.modulus][1](c))
        if th.offset is not None:
            offset = evaluate_functional(th.offset, CaratheodoryPoint(t1, 0, 0)).value
    return th.sign * (modulus - abs(offset))


def random_t1_tau2(seed, n=200):
    rng = np.random.default_rng(seed)
    t1 = rng.uniform(0.0, 1.0, n)
    tau2 = np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    return zip(t1.tolist(), tau2.tolist())


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(grid_tau1=1)
    # rounds are capped: each rescans its window, collapsed or not
    for rounds in (-1, REFINEMENT_ROUNDS_MAX + 1):
        with pytest.raises(ValueError, match="refinement_rounds"):
            SearchConfig(refinement_rounds=rounds)
    assert SearchConfig(refinement_rounds=REFINEMENT_ROUNDS_MAX).refinement_rounds == REFINEMENT_ROUNDS_MAX
    # grids are capped before any scan allocates them
    for grid in (TAU1_GRID_MAX + 1, 10 ** 9):
        with pytest.raises(ValueError, match="grid_tau1"):
            SearchConfig(grid_tau1=grid)
    assert SearchConfig(grid_tau1=TAU1_GRID_MAX).grid_tau1 == TAU1_GRID_MAX


def test_verify_rejects_unknown_id():
    with pytest.raises(ValueError):
        verify("bogus")


def test_theorem_id_roster():
    assert len(THEOREM_IDS) == 11
    assert len(set(THEOREM_IDS)) == 11


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_coarse_grid_never_exceeds(theorem_id):
    # coarse grids undershoot the extremum but cannot overshoot a true bound
    rep = verify(theorem_id, COARSE)
    assert rep.gap >= -EXCEED_TOL


def test_exact_grid_targets_attain_even_on_coarse_grid():
    for theorem_id in ("gamma1", "gamma2", "H21_log", "Gamma1", "Gamma2",
                       "diff_gamma_upper", "diff_Gamma_upper", "gamma3"):
        rep = verify(theorem_id, COARSE)
        assert rep.passed, (theorem_id, rep.gap)


def test_refinement_improves_incumbent():
    no_refine = SearchConfig(grid_tau1=31, grid_r=5, grid_theta=8, refinement_rounds=0)
    refined = SearchConfig(grid_tau1=31, grid_r=5, grid_theta=8, refinement_rounds=5)
    a = verify("diff_gamma_lower", no_refine)
    b = verify("diff_gamma_lower", refined)
    assert b.empirical_extremum <= a.empirical_extremum
    assert b.gap <= a.gap


def test_determinism_bit_for_bit():
    cfg = SearchConfig(grid_tau1=21, grid_r=5, grid_theta=12, refinement_rounds=3)
    first = verify_all(cfg)
    second = verify_all(cfg)
    assert first == second


@pytest.mark.parametrize("theorem_id", sorted(THREE_PARAM))
def test_tau3_sup_matches_dense_tau3_scan(theorem_id):
    for t1, tau2 in random_t1_tau2(5):
        reduced = float(objective_slice(theorem_id, t1, np.array([tau2]))[0])
        brute = float(objective_slice(theorem_id, t1, np.array([tau2]), DENSE_TAU3).max())
        assert reduced >= brute - 1e-12, (t1, tau2)
        assert reduced - brute <= reduced * TAU3_GRID_SLACK + 1e-12, (t1, tau2)


@pytest.mark.parametrize("theorem_id", TWO_PARAM)
def test_two_param_objective_does_not_depend_on_tau3(theorem_id):
    tau3 = DENSE_TAU3[::97]
    for t1, tau2 in random_t1_tau2(7, n=50):
        reduced = float(objective_slice(theorem_id, t1, np.array([tau2]))[0])
        brute = objective_slice(theorem_id, t1, np.array([tau2]), tau3)
        assert np.abs(brute - reduced).max() <= 1e-12, (t1, tau2)


@pytest.mark.parametrize("theorem_id,functional", sorted(THREE_PARAM.items()))
def test_maximizing_tau3_attains_the_sup(theorem_id, functional):
    th = THEOREMS[theorem_id]
    for t1, tau2 in random_t1_tau2(6):
        tau3 = form_tau3(*polyval_rows(th, t1)[:4], tau2)
        assert abs(abs(tau3) - 1.0) <= 1e-12
        reduced = float(objective_slice(theorem_id, t1, np.array([tau2]))[0])
        got = abs(evaluate_functional(functional, CaratheodoryPoint(t1, tau2, tau3)).value)
        assert abs(got - reduced) <= 1e-12, (t1, tau2)


@pytest.mark.parametrize("theorem_id,functional", sorted(THREE_PARAM.items()))
def test_reported_maximizer_reproduces_extremum(theorem_id, functional):
    for cfg in (COARSE, SearchConfig(grid_tau1=17, grid_r=6, grid_theta=10,
                                     refinement_rounds=1)):
        rep = verify(theorem_id, cfg)
        assert abs(abs(rep.maximizer.tau3) - 1.0) <= 1e-12
        got = abs(evaluate_functional(functional, rep.maximizer).value)
        assert abs(got - rep.empirical_extremum) <= 1e-12


@pytest.mark.parametrize("theorem_id", TWO_PARAM)
def test_reported_maximizer_reproduces_extremum_two_param(theorem_id):
    th = THEOREMS[theorem_id]
    for cfg in (COARSE, SearchConfig()):
        rep = verify(theorem_id, cfg)
        assert rep.maximizer.tau3 == 0
        value = evaluate_functional(th.functional, rep.maximizer).value
        got = value if th.sign < 0 else abs(value)
        assert abs(got - rep.empirical_extremum) <= 1e-12


def test_evaluations_count_tau1_points():
    unrefined = SearchConfig(grid_tau1=13, refinement_rounds=0)
    for theorem_id in THEOREM_IDS:
        assert verify(theorem_id, unrefined).evaluations == 13, theorem_id
        # each round scans 101 points, plus the incumbent when it is off them
        assert 101 * 7 <= verify(theorem_id).evaluations <= 101 + 6 * 102 < 1000, theorem_id


def test_results_do_not_depend_on_polar_grid_sizes():
    base = SearchConfig(grid_tau1=17, refinement_rounds=2)
    other = SearchConfig(grid_tau1=17, grid_r=3, grid_theta=5, refinement_rounds=2)
    assert verify_all(base) == verify_all(other)


# dense brute-force tau2 grid: 401 radii (1 included) by 1440 angles (0 and pi
# included)
DENSE_RADII, DENSE_ANGLES = 401, 1440
DENSE_TAU2 = (np.linspace(0.0, 1.0, DENSE_RADII)[:, None]
              * np.exp(1j * np.linspace(0.0, 2 * np.pi, DENSE_ANGLES, endpoint=False))[None, :]
              ).ravel()
# every point of the disk lies within this distance of a grid point
DENSE_STEP = math.hypot(0.5 / (DENSE_RADII - 1), math.pi / DENSE_ANGLES)
PROFILE_T1 = sorted({0.0, 1.0, 2 / 3, TAU_SPLIT, math.sqrt(2 / 3), math.sqrt(2 / 5),
                     *np.linspace(0.0, 1.0, 41).tolist()})


@pytest.mark.parametrize("theorem_id", sorted(THREE_PARAM) + list(TWO_PARAM))
def test_profile_matches_dense_tau2_scan(theorem_id):
    th = THEOREMS[theorem_id]
    assert len(PROFILE_T1) >= 45
    profile = th.profile(np.array(PROFILE_T1))
    for t1, value in zip(PROFILE_T1, profile.tolist()):
        brute = float(objective_slice(theorem_id, t1, DENSE_TAU2).max())
        assert value >= brute - 1e-12, (t1, value, brute)
        if th.sign > 0:
            assert value <= brute + 1e-6, (t1, value, brute)
        else:
            # an infimum inside the disk is a kink of |A + B tau2|, so the
            # grid can miss it by the Lipschitz constant |B| <= 1 times the step
            assert value <= brute + DENSE_STEP, (t1, value, brute)
        # the profile is attained: its maximizer reproduces it exactly
        pt = th.maximizer(t1)
        at = objective_slice(theorem_id, t1, np.array([pt.tau2]), np.array([pt.tau3]))
        assert abs(float(at.ravel()[0]) - value) <= 1e-12, (t1, value)


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_theorems_keep_only_their_nonzero_rows(theorem_id):
    th, three = THEOREMS[theorem_id], theorem_id in THREE_PARAM
    A, B, C, W = _tau1_polynomials(th.modulus)
    offset = () if th.offset is None else _tau1_polynomials(th.offset)
    # C and W of the 2-parameter targets and an offset's rows past A are exact zeros
    zeros = [*offset[1:], *(() if three else (C, W))]
    assert all(type(c) is F and c == 0 for p in zeros for c in p)
    assert not three or any(C) or any(W)
    # the kept rows, padded with leading zeros to one width
    kept = [A, B, *((C, W) if three else ()), *offset[:1]]
    width = max(verifier.ROW_WIDTH, *map(len, kept))
    assert th._rows.tolist() == [[0.0] * (width - len(p)) + [float(c) for c in p] for p in kept]


#: (A, B, C, W) of every functional the theorems read, each highest degree
#: first, recorded from the derivation through the a -> gamma chain with every
#: point mapped afresh for each functional
RECORDED_TAU1_POLYNOMIALS = {
    "gamma1": (("1/2", "0"), ("0",), ("0",), ("0",)),
    "gamma2": (("1/8", "0", "0"), ("-1/4", "0", "1/4"), ("0",), ("0",)),
    "gamma3": (("0",), ("-1/6", "0", "1/6", "0"), ("1/6", "0", "-1/6", "0"),
               ("-1/6", "0", "1/6")),
    "Gamma1": (("-1/2", "0"), ("0",), ("0",), ("0",)),
    "Gamma2": (("3/8", "0", "0"), ("1/4", "0", "-1/4"), ("0",), ("0",)),
    "H21_log": (("-1/64", "0", "0", "0", "0"), ("-1/48", "0", "1/48", "0", "0"),
                ("1/48", "0", "1/24", "0", "-1/16"), ("-1/12", "0", "1/12", "0")),
    "H21_log_inverse": (("3/64", "0", "0", "0", "0"), ("5/48", "0", "-5/48", "0", "0"),
                        ("1/48", "0", "1/24", "0", "-1/16"), ("-1/12", "0", "1/12", "0")),
}


@pytest.fixture
def fresh_derivation():
    """Clears the derivation's caches before and after a test, so a patched
    closed form is derived afresh and leaves no trace."""
    _tau1_polynomials.cache_clear()
    verifier._coeffs_on_tau1.cache_clear()
    yield
    _tau1_polynomials.cache_clear()
    verifier._coeffs_on_tau1.cache_clear()


def test_tau1_polynomials_are_the_recorded_fractions(monkeypatch, fresh_derivation):
    read = {th.modulus for th in THEOREMS.values()} | {th.offset for th in THEOREMS.values()}
    assert read - {None} == RECORDED_TAU1_POLYNOMIALS.keys()
    calls = []
    map_c3 = verifier.c3_parts
    monkeypatch.setattr(verifier, "c3_parts", lambda *a: calls.append(a) or map_c3(*a))
    for name, want in RECORDED_TAU1_POLYNOMIALS.items():
        got = _tau1_polynomials(name)
        assert all(type(c) is F for p in got for c in p), name
        assert got == tuple(tuple(F(c) for c in p) for p in want), name
    # the 4 (tau2, tau3) samples and the check point, each mapped once and
    # shared by every functional
    assert len(calls) == 5


def test_tau1_polynomials_are_exact_past_degree_four(monkeypatch, fresh_derivation):
    # c1 = 2 tau1, so c1^5 / 32 is tau1^5: no degree bound is assumed
    monkeypatch.setitem(_FUNCTIONALS, "gamma1", (1, lambda c: c.c1 ** 5 / 32))
    A, B, C, W = _tau1_polynomials("gamma1")
    assert all(type(c) is F for p in (A, B, C, W) for c in p)
    assert (A, B, C, W) == ((1, 0, 0, 0, 0, 0), (0,), (0,), (0,))


def test_tau1_polynomials_refuse_a_form_outside_the_shape(monkeypatch, fresh_derivation):
    # c3^2 is quadratic in tau3, so the check point (1/2, 1/2) tells it apart
    monkeypatch.setitem(_FUNCTIONALS, "gamma3", (3, lambda c: c.c3 * c.c3))
    with pytest.raises(ValueError, match=r"gamma3 is not A \+ B tau2"):
        _tau1_polynomials("gamma3")


@pytest.mark.parametrize("theorem_id", THEOREM_IDS)
def test_stacked_horner_is_polyval_bit_for_bit(theorem_id):
    th = THEOREMS[theorem_id]
    t1 = np.linspace(0.0, 1.0, 1001)
    # the profile on all five polyval rows: dropping the zero rows changes no bit
    A, B, C, W, offset = polyval_rows(th, t1)
    if theorem_id in THREE_PARAM:
        modulus = form_max(A, B, C, W)
    elif th.sign > 0:
        modulus = np.abs(A) + np.abs(B)
    else:
        modulus = np.maximum(0.0, np.abs(A) - np.abs(B))
    assert th.profile(t1).tobytes() == (th.sign * (modulus - np.abs(offset))).tobytes()
    # the scalar rows that maximizer reads
    for t in (0.0, 1.0, 0.5, *t1[1::97].tolist(), math.sqrt(2 / 11)):
        at = verifier._horner(th._rows.T, t).tolist()
        assert [v.hex() for v in at] == [float(np.polyval(r, t)).hex() for r in th._rows], t
        assert [v.hex() for v in at] == [float(np.polyval(r, np.array([t]))[0]).hex()
                                         for r in th._rows]


def test_reports_carry_counts_and_points():
    rep = verify("gamma2", COARSE)
    assert rep.evaluations > 0
    assert 0 <= rep.maximizer.tau1 <= 1
    assert abs(rep.maximizer.tau2) <= 1 + 1e-9


# --- sharpness witnesses ---------------------------------------------------------

EXACT_WITNESS_VALUES = {
    "gamma1": F(1, 2),
    "gamma2": F(1, 4),
    "gamma3": F(1, 6),
    "H21_log": F(1, 16),
    "Gamma1": F(1, 2),
    "Gamma2": F(3, 8),
}


@pytest.mark.parametrize("theorem_id,expected", sorted(EXACT_WITNESS_VALUES.items()))
def test_witnesses_exact_in_rational_mode(theorem_id, expected):
    pt, fv = sharpness_witness(theorem_id)
    assert isinstance(fv.value, F) or isinstance(abs(fv.value), F)
    assert abs(fv.value) == expected


def test_witness_diff_upper_exact():
    for theorem_id in ("diff_gamma_upper", "diff_Gamma_upper"):
        _, fv = sharpness_witness(theorem_id)
        assert fv.value == F(1, 4)


def test_witness_surd_values():
    _, fv = sharpness_witness("H21_inverse")
    assert abs(fv.value) == pytest.approx(3 / 44, abs=1e-12)
    _, fv = sharpness_witness("diff_gamma_lower")
    assert fv.value == pytest.approx(-1 / math.sqrt(6), abs=1e-12)
    _, fv = sharpness_witness("diff_Gamma_lower")
    assert fv.value == pytest.approx(-1 / math.sqrt(10), abs=1e-12)


def test_witness_points_sit_where_expected():
    pt, _ = sharpness_witness("H21_inverse")
    assert pt.tau1 == pytest.approx(math.sqrt(2 / 11), abs=1e-15)
    assert pt.tau2 == 1 and pt.tau3 == 1
    pt, _ = sharpness_witness("gamma3")
    assert (pt.tau1, pt.tau2, pt.tau3) == (0, 0, 1)


def test_witness_rejects_unknown():
    with pytest.raises(ValueError):
        sharpness_witness("bogus")


# --- slice cross-check -------------------------------------------------------------

def test_inverse_hankel_slice_matches_scalar_profile():
    # on the slice tau2 = tau3 = 1 the search objective reduces to the
    # scalar profile (12 + 12 t^2 - 33 t^4)/192
    tau2 = np.array([1.0 + 0j])
    tau3 = np.array([1.0 + 0j])
    for t in np.linspace(0.0, TAU_SPLIT, 200):
        got = objective_slice("H21_inverse", float(t), tau2, tau3)[0, 0]
        want = Psi(float(t)) / 192
        assert abs(got - want) <= 1e-10
        also = abs(evaluate_functional("H21_log_inverse",
                                       CaratheodoryPoint(float(t), 1.0, 1.0)).value)
        assert abs(got - also) <= 1e-12


# the moduli differences are real and bounded with their sign; every other
# functional is bounded in modulus
SIGNED_FUNCTIONALS = {"diff_gamma", "diff_Gamma"}


def test_objective_slice_matches_scalar_functionals():
    rng = np.random.default_rng(21)
    for _ in range(50):
        t1 = float(rng.uniform(0, 1))
        tau2 = complex(rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        tau3 = complex(rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        c = coeffs_from_point(CaratheodoryPoint(t1, tau2, tau3))
        for theorem_id, th in THEOREMS.items():
            value = evaluate_functional(th.functional, c).value
            want = th.sign * value if th.functional in SIGNED_FUNCTIONALS else abs(value)
            got = objective_slice(theorem_id, t1, np.array([tau2]), np.array([tau3]))
            assert abs(float(got.ravel()[0]) - want) < 1e-12, (theorem_id, t1, tau2, tau3)


# --- registry against the documentation ----------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_bound_rows():
    """(target, sharp constant) rows of the README "Verified bounds" table."""
    section = README.read_text().split("## Verified bounds", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\|\s*`([^`]+)`\s*\|[^|]*\|\s*(.+?)\s*\|\s*$", section, re.M)
    assert rows, "no table rows found"
    return rows


def test_readme_bounds_table_matches_registry():
    covered = []
    for target, constant in readme_bound_rows():
        if target.endswith("_*"):
            lower = THEOREMS[target[:-1] + "lower"]
            upper = THEOREMS[target[:-1] + "upper"]
            assert constant == f"[{lower.bound.expr}, {upper.bound.expr}]", target
            covered += [lower.id, upper.id]
        else:
            assert constant == THEOREMS[target].bound.expr, target
            covered.append(target)
    assert sorted(covered) == sorted(THEOREM_IDS)

