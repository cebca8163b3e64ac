"""Piecewise maxima vs brute-force oracles; scalar case profiles."""

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from coeffsharp import lemmas
from coeffsharp._search import tau1_argmax
from coeffsharp.caratheodory import CaratheodoryPoint, coeffs_from_point
from coeffsharp.lemmas import (
    PsiInput,
    YInput,
    lemma23_bound,
    lemma23_empirical,
    lemma24_check,
    psi_empirical,
    psi_minus_bound,
    psi_plus_bound,
    form_argmax,
    form_max,
    y_argmax,
    y_branch,
    y_brute_force,
    y_closed_form,
    _L24_SAMPLES,
    _PSI_GRID,
    _Y_ROUNDS,
    _Y_SHRINK,
    _cos_quadratic,
    _horner,
    _lemma24_rows,
    _pow2_normalized,
    _tau1_polynomials,
    _y_radius_profile,
)

from case_profiles import PSI_ARGMAX, TAU_SPLIT, Phi, Psi, phi

# one exemplar per branch of the disk maximum, all double checked against the
# brute-force oracle below
BRANCH_EXEMPLARS = [
    (YInput(1.0, 3.0, 1.0), "i.sum", 5.0),
    (YInput(1.0, 0.1, 0.5), "i.parabola", 2.005),
    (YInput(-0.01, 0.5, 0.5), "ii.parabola-minus", 1.115),
    (YInput(-1.0, 1.0, 0.5), "ii.parabola-plus", 1 + 1 + 1 / 6),
    (YInput(-5.0, 3.0, 0.1), "R.drop-c", 7.9),
    (YInput(0.1, 4.0, -3.0), "R.drop-a", 6.9),
    (YInput(1.0, 0.5, -1.0), "R.sqrt", 2 * math.sqrt(1.0625)),
]

# magnitudes across the float range, subnormal to near overflow
MAGNITUDES = (1e-320, 1e-200, 1e-160, 1e-155, 0.5, 1.0, 1.7, 1e154, 1e160, 1e300)
# those magnitudes with opposite and equal signs of A and C, and with -0.0 for C or A
SIGN_GRID = [t for a, b, c in itertools.product(MAGNITUDES, (0.0,) + MAGNITUDES, MAGNITUDES)
             for t in ((-a, b, c), (a, b, c), (-a, b, -0.0), (-0.0, b, c))]


def y_tol(value):
    """How far the Y oracle may lie from a maximum ``value``: rounding only."""
    return 1e-12 * max(1.0, abs(value))


def y_radius_search(yin, grid):
    """The Y oracle's radius search at ``grid`` radii instead of its fixed 200."""
    return tau1_argmax(_y_radius_profile(yin.A, yin.B, yin.C), grid, _Y_ROUNDS, _Y_SHRINK)[0]


# --- closed form -----------------------------------------------------------------

def test_y_trivial_values():
    assert y_closed_form(YInput(0, 0, 0)) == 1.0
    assert y_brute_force(YInput(1, 0, 0)) == pytest.approx(2.0, abs=1e-9)
    assert y_brute_force(YInput(0, 2, 0)) == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("yin,branch,value", BRANCH_EXEMPLARS)
def test_y_branch_exemplars(yin, branch, value):
    assert y_branch(yin) == branch
    assert y_closed_form(yin) == pytest.approx(value, abs=1e-12)
    assert abs(y_brute_force(yin) - value) <= y_tol(value)


def test_y_rejects_nonfinite():
    with pytest.raises(ValueError):
        YInput(float("inf"), 0.0, 0.0)


@pytest.mark.parametrize("grid", [2001, 100_000])
def test_y_brute_force_caps_its_grid(grid):
    # the radius count is fixed: no grid is accepted, small or large
    with pytest.raises(TypeError, match="grid"):
        y_brute_force(YInput(0.1, 0.2, 0.3), grid=grid)


def test_y_case_three_profile():
    # with the triangle-inequality weights of the log-determinant estimate the
    # maximum reduces to (12 - 4 t^2 - 5 t^4)/(16 t (1 - t^2))
    for t in (0.25, 0.5, 0.8):
        u = 1 - t * t
        yin = YInput(-3 * t ** 3 / (16 * u), t / 4, -(3 + t * t) / (4 * t))
        assert y_branch(yin) == "i.sum"
        want = (12 - 4 * t * t - 5 * t ** 4) / (16 * t * u)
        assert y_closed_form(yin) == pytest.approx(want, rel=1e-12)
        assert abs(y_brute_force(yin) - want) <= y_tol(want)


def test_y_inverse_case_profile_switches_branch():
    # the inverse-determinant weights drop the |A| term up to TAU_SPLIT and
    # switch to the sqrt fallback beyond it
    def weights(t):
        u = 1 - t * t
        return YInput(9 * t ** 3 / (16 * u), -5 * t / 4, -(3 + t * t) / (4 * t))

    for t in (0.2, 0.4, 0.55):
        yin = weights(t)
        assert y_branch(yin) == "R.drop-a"
        want = (12 + 12 * t * t - 33 * t ** 4) / (16 * t * (1 - t * t))
        assert y_closed_form(yin) == pytest.approx(want, rel=1e-12)
        assert abs(y_brute_force(yin) - want) <= y_tol(want)
    for t in (0.6, 0.7, 0.9):
        yin = weights(t)
        assert y_branch(yin) == "R.sqrt"
        want = Phi(t) / (16 * t * (1 - t * t))
        assert y_closed_form(yin) == pytest.approx(want, rel=1e-12)


def test_y_oracle_equivalence_with_branch_coverage():
    rng = np.random.default_rng(42)
    inputs = [yin for yin, _, _ in BRANCH_EXEMPLARS]
    inputs += [YInput(*vals) for vals in rng.uniform(-5, 5, size=(1000, 3))]
    seen = Counter()
    for yin in inputs:
        seen[y_branch(yin)] += 1
        closed = y_closed_form(yin)
        assert abs(closed - y_brute_force(yin)) <= y_tol(closed)
    assert set(seen) == {
        "i.sum", "i.parabola", "ii.parabola-minus", "ii.parabola-plus",
        "R.drop-c", "R.drop-a", "R.sqrt",
    }
    assert all(seen[b] >= 1 for b in ("R.drop-c", "R.drop-a", "R.sqrt"))


def y_regime_inputs(rng, n):
    """n inputs from each of four regimes: wide and unit boxes, a tiny |A|
    against an opposite-sign C (the parabola seams), and large |A|, |B| with
    a small opposite-sign C (drop-c)."""
    out = []
    for _ in range(n):
        out.append(tuple(rng.uniform(-5, 5, 3)))
        out.append(tuple(rng.uniform(-1, 1, 3)))
        c = rng.choice((-1.0, 1.0)) * rng.uniform(0.2, 0.95)
        out.append((-math.copysign(rng.uniform(0, 0.05), c), rng.uniform(-1, 1), c))
        a = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 5)
        b = rng.choice((-1.0, 1.0)) * rng.uniform(2.5, 5)
        out.append((a, b, -math.copysign(rng.uniform(0, 0.5), a)))
    return [YInput(*map(float, abc)) for abc in out]


def disk_objective(A, B, C, z, W=1.0):
    return abs(A + B * z + C * z * z) + W * (1 - abs(z) ** 2)


def y_full_disk_grid_max(yin, grid):
    """Oracle of the oracle: the disk objective in complex arithmetic on the
    whole polar grid of ``grid`` radii by ``int(3.6 grid)`` angles."""
    r = np.linspace(0.0, 1.0, grid)[:, None]
    z = r * np.exp(1j * np.linspace(0.0, 2 * np.pi, int(3.6 * grid), endpoint=False))[None, :]
    return float((np.abs(yin.A + yin.B * z + yin.C * z * z) + 1.0 - r * r).max())


def y_oracle_inputs():
    inputs = [yin for yin, _, _ in BRANCH_EXEMPLARS] + y_regime_inputs(np.random.default_rng(9), 14)
    assert {y_branch(yin) for yin in inputs} == {b for _, b, _ in BRANCH_EXEMPLARS}
    return inputs


def y_half_disk_scan(yin, grid):
    """``(value, r, evaluations)`` of the Y oracle's first scan: ``grid`` radii
    of the upper half-disk, the angle in [0, pi] eliminated exactly, without
    the windows that follow it."""
    return tau1_argmax(_y_radius_profile(yin.A, yin.B, yin.C), grid)


@pytest.mark.parametrize("grid", [200, 101, 100])  # 720, 363 (odd) and 360 angles
def test_y_half_disk_scan_reaches_the_full_grid_maximum(grid):
    # on the same radii, the angle eliminated exactly reaches every angle of
    # the full polar grid, and never more than the disk maximum
    for yin in y_oracle_inputs():
        full = y_full_disk_grid_max(yin, grid)
        scanned, _, evals = y_half_disk_scan(yin, grid)
        assert evals == grid
        closed = y_closed_form(yin)
        assert full - y_tol(full) <= scanned <= closed + y_tol(closed), (yin, scanned, full)
        brute = y_radius_search(yin, grid)
        assert scanned <= brute <= closed + y_tol(closed), (yin, brute, scanned)


# angles of the upper half-disk, pi included, about 5e-5 apart
DENSE_HALF_TURN = np.linspace(0.0, np.pi, 65537)


def y_re_im_objective(A, B, C, r, th):
    """The disk objective at polar points (r, th), elementwise, through ``re``
    and ``im`` of A + B z + C z^2, with A, B, C divided by a power of two
    >= 1 so that the squares cannot overflow."""
    scale = math.ldexp(1.0, max(0, math.frexp(max(abs(A), abs(B), abs(C)))[1] - 1))
    a, b, c = A / scale, B / scale, C / scale
    re = a + r * (b * np.cos(th) + c * r * np.cos(2.0 * th))
    im = r * (b * np.sin(th) + c * r * np.sin(2.0 * th))
    return np.sqrt(re * re + im * im) * scale + (1.0 - r * r)


def y_re_im_scan(yin, grid):
    """Oracle of the radius scan: the maximum of :func:`y_re_im_objective` over
    ``grid`` radii by the angles ``2 pi k / n``, ``0 <= k <= n // 2``,
    ``n = int(3.6 grid)``, every point through its own square root."""
    n = int(3.6 * grid)
    half = n // 2
    r = np.linspace(0.0, 1.0, grid)[:, None]
    th = np.linspace(0.0, 2.0 * np.pi * half / n, half + 1)[None, :]
    return float(y_re_im_objective(yin.A, yin.B, yin.C, r, th).max())


@pytest.mark.parametrize("grid", [100, 101, 200])  # 360, 363 (odd) and 720 angles
def test_y_half_disk_scan_matches_the_re_im_scan(grid):
    # on the same radii, the angle eliminated exactly reaches every angle of
    # the re/im scan, and never more than the disk maximum
    for yin in y_oracle_inputs():
        value, r, _ = y_half_disk_scan(yin, grid)
        want = y_re_im_scan(yin, grid)
        closed = y_closed_form(yin)
        assert want - y_tol(want) <= value <= closed + y_tol(closed), (yin, value, want)
        # the reported radius attains the value, to the step of a dense angle scan
        at = float(y_re_im_objective(yin.A, yin.B, yin.C, r, DENSE_HALF_TURN).max())
        assert at - y_tol(at) <= value <= at + 1e-7 * max(1.0, at), (yin, r, at, value)


def test_cos_quadratic_is_the_squared_modulus_exactly():
    # With e^{it} = ((1 - t^2) + 2it) / (1 + t^2), both sides times (1 + t^2)^4
    # are polynomials of degree <= 2 in each of a, b, c, <= 4 in r and <= 8 in
    # t.  Equal on a grid of deg + 1 points per variable, they are the same
    # polynomial (Alon, Combinatorial Nullstellensatz, 1999, Lemma 2.1), so the
    # identity holds for every real a, b, c, r and every angle but pi, and by
    # continuity at pi too.
    def nodes(deg):
        return [Fraction(k, 3) - 1 for k in range(deg + 1)]

    for a, b, c, r, t in itertools.product(nodes(2), nodes(2), nodes(2), nodes(4), nodes(8)):
        x, y = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)  # cos and sin
        re = a + b * r * x + c * r * r * (x * x - y * y)
        im = b * r * y + c * r * r * (2 * x * y)
        p0, p1, p2 = _cos_quadratic(a, b, c, r)
        assert re * re + im * im == p0 + p1 * x + p2 * x * x, (a, b, c, r, t)


def masked_y_radius_profile(A, B, C):
    """The Y radius profile with the vertex mask built and applied on every
    call, whatever the signs, and a new array per step: the reference for
    :func:`_y_radius_profile`."""
    exponent, a, b, c = _pow2_normalized(A, B, C)

    def profile(r):
        p0, p1, p2 = _cos_quadratic(a, b, c, r)
        slope = np.abs(p1)
        top = p0 + slope + p2
        vertex = 2 * p2 < -slope
        top[vertex] = p0[vertex] - p1[vertex] ** 2 / (4 * p2[vertex])
        return np.ldexp(np.sqrt(np.maximum(top, 0.0)), exponent) + (1.0 - r * r)

    return profile


@pytest.mark.filterwarnings("error")
def test_y_radius_profile_matches_the_masked_reference_bit_for_bit():
    # over the sign grid and seeded inputs, on radii with 0, subnormals and 1:
    # the sign test skips the vertex only where it can never be taken
    rng = np.random.default_rng(23)
    seeded = rng.choice((-1.0, 1.0), (400, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (400, 3))
    radii = np.concatenate(([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200],
                            np.linspace(0.0, 1.0, 201), rng.random(64), [1.0]))
    inputs = SIGN_GRID + [(yin.A, yin.B, yin.C) for yin, _, _ in BRANCH_EXEMPLARS]
    vertex_inputs = 0
    for A, B, C in inputs + seeded.tolist():
        got = _y_radius_profile(A, B, C)(radii)
        assert got.tobytes() == masked_y_radius_profile(A, B, C)(radii).tobytes(), (A, B, C)
        _, a, b, c = _pow2_normalized(A, B, C)
        _, p1, p2 = _cos_quadratic(a, b, c, radii)
        vertex_inputs += bool((2 * p2 < -np.abs(p1)).any())
    assert vertex_inputs > 200  # the reference's vertex branch is exercised


@pytest.mark.filterwarnings("error")
def test_y_half_disk_scan_across_magnitudes():
    # A, B, C are normalized in both directions: nothing overflows or warns,
    # and no tiny coefficient turns the value into a NaN.  The other signs
    # follow: z -> -z flips B, and negating A, B, C keeps the modulus.
    for a, b, c in itertools.product(MAGNITUDES, (0.0,) + MAGNITUDES, MAGNITUDES):
        for A in (a, -a):
            yin = YInput(A, b, c)
            value = y_half_disk_scan(yin, 100)[0]
            want = y_re_im_scan(yin, 100)
            assert math.isfinite(value) and value >= want - y_tol(want), (A, b, c, value, want)
            try:
                closed = y_closed_form(yin)
            except ValueError:  # the maximum is past the float range
                continue
            assert value <= closed + y_tol(closed), (A, b, c, value, closed)


def test_y_brute_force_does_not_overflow_on_large_input():
    # |A + B z + C z^2| near 1e200 squares past the float range
    for A, B, C in ((1e200, 0.0, 0.0), (0.0, -1e200, 0.0), (1e300, -1e300, 1e300)):
        assert y_brute_force(YInput(A, B, C)) == pytest.approx(
            abs(A) + abs(B) + abs(C), rel=1e-12)


@pytest.mark.parametrize("yin, branch, value", [
    # C*C underflows to 0, though 1/C^2 is only 1e400
    (YInput(-1.0, 0.0, 1e-200), "ii.parabola-plus", 2.0),
    # -4*A*C overflows to inf, on the side of a comparison it still decides
    (YInput(-1e300, 0.0, 1e10), "R.sqrt", 1e300),
    # A*C and 4AC underflow to -0.0, though A and C have opposite signs
    (YInput(-1e-200, 1e-30, 1e-150), "ii.parabola-plus", 1.0),
    # 4a/c and B*B overflow, but b >= 2(1 - c) decides the first rung without them
    (YInput(-1e-10, 1e250, 1e-320), "R.drop-c", 1e250),
    # |A| = |C| far below |B|: 4|A| added to |B| would vanish and tie the R.drop-c rung
    (YInput(-0.5, 1e17, 0.5), "R.sqrt", 1e17),
    # 4AC underflows to -0.0, and B^2/(4AC) is past the float range, but Y is not
    (YInput(-1e-200, 1e154, 1e-200), "R.sqrt", 1e154),
])
def test_y_decides_branches_past_the_float_range(yin, branch, value):
    assert y_branch(yin) == branch
    assert y_closed_form(yin) == value
    assert y_brute_force(yin) == pytest.approx(value, rel=1e-12)
    z = y_argmax(yin)
    assert abs(z) <= 1 + 1e-15
    assert disk_objective(yin.A, yin.B, yin.C, z) == pytest.approx(value, rel=1e-12)


def test_y_closed_form_matches_the_oracle_across_magnitudes():
    # both signs of A*C across the float range: where a branch quantity
    # overflows or underflows, every input the closed form accepts is still its
    # maximum, on 100 radii and on the oracle's own 200
    accepted = 0
    for a, b, c in itertools.product(MAGNITUDES, (0.0,) + MAGNITUDES, MAGNITUDES):
        for yin in (YInput(-a, b, c), YInput(a, b, c)):
            try:
                value = y_closed_form(yin)
            except ValueError:
                continue
            accepted += 1
            for brute in (y_radius_search(yin, 100), y_brute_force(yin)):
                assert value == pytest.approx(brute, rel=1e-13), (yin, y_branch(yin), brute)
    assert accepted > 2000


def test_y_oracle_reaches_maxima_inside_the_disk():
    # ii.parabola-plus maxima that a search over angle and radius in turn
    # stopped up to 3.7e-6 short of
    for yin in (YInput(0.01804, 0.06644, -0.86832), YInput(0.27722, -0.43662, -0.90847)):
        closed = y_closed_form(yin)
        assert abs(y_brute_force(yin) - closed) <= y_tol(closed), yin


def exact_ladder_labels(A, B, C):
    """The branches the ladder of ``y_branch`` takes in exact rational
    arithmetic (-0.0 is 0): one label, or more where the two sides of a
    comparison differ by less than 2^-50 of the larger, so that rounding may
    decide it either way."""
    A, B, C = map(Fraction, (A, B, C))
    a, b, c = abs(A), abs(B), abs(C)

    def outcomes(lhs, rhs, strict=False):
        if lhs != rhs and abs(lhs - rhs) <= max(abs(lhs), abs(rhs)) / 2 ** 50:
            return {True, False}
        return {lhs < rhs if strict else lhs <= rhs}

    if A * C >= 0:
        rungs, last = [(outcomes(2 * (1 - c), b), "i.sum")], "i.parabola"
    else:
        inner = -4 * A * C * (1 / (C * C) - 1)
        bb, outer = b * b, 4 * (1 + c) ** 2
        minus = {p and q for p in outcomes(inner, bb) for q in outcomes(b, 2 * (1 - c), True)}
        rungs = [(minus, "ii.parabola-minus"),
                 (outcomes(bb, min(outer, inner), True), "ii.parabola-plus"),
                 (outcomes(4 * a * c, (a - c) * b), "R.drop-c"),
                 (outcomes(4 * a * c, (c - a) * b), "R.drop-a")]
        last = "R.sqrt"
    labels = set()
    for taken, label in rungs:
        if True in taken:
            labels.add(label)
        if False not in taken:
            return labels
    return labels | {last}


def test_y_labels_match_the_exact_ladder_across_magnitudes():
    # where A*C, 4AC or C*C underflow or overflow, the branch is still the one
    # exact arithmetic takes; a zero, -0.0 included, is on the same-sign side
    checked = 0
    for A, B, C in [(-1e-200, 1e-30, 1e-150)] + SIGN_GRID:
        try:
            label = y_branch(YInput(A, B, C))
        except ValueError:  # the maximum, or a branch condition, is past the float range
            continue
        checked += 1
        assert label in exact_ladder_labels(A, B, C), (A, B, C, label)
    assert checked > 4000


def test_y_rejects_exactly_the_undecidable_inputs_of_the_sign_grid():
    # with opposite signs, |A|, |C| >= 1e154 and |B| >= 1e160, B^2 and
    # 4(|A|/|C|)(1 - C^2) overflow to +inf and -inf, and the ii.parabola-plus
    # rung compares the two; every other input of the grid is decided
    rejected, accepted = {}, 0
    for A, B, C in SIGN_GRID:
        try:
            y_closed_form(YInput(A, B, C))
        except ValueError as exc:
            rejected[A, B, C] = str(exc)
            continue
        accepted += 1
    huge = (1e154, 1e160, 1e300)
    assert set(rejected) == {(-a, b, c) for a in huge for b in (1e160, 1e300) for c in huge}
    assert set(rejected.values()) == {
        "a branch condition compares two values that are not finite: the inputs are too large"}
    assert accepted == 4382


def test_circle_argmax_across_magnitudes():
    # normalized in both directions, coefficients near 1e-200 do not square to
    # 0, and a leading coefficient 4AC that underflows is not divided by
    circle = np.exp(1j * np.linspace(0.0, 2 * np.pi, 4096, endpoint=False))
    for a, b, c in itertools.product(MAGNITUDES, (0.0,) + MAGNITUDES, MAGNITUDES):
        for A in (a, -a):
            z = form_argmax(A, b, c, 0.0)[0]
            assert abs(abs(z) - 1) <= 1e-15
            # compare moduli at a common power-of-two scale, where nothing underflows
            e = math.frexp(max(a, b, c))[1]
            An, Bn, Cn = (math.ldexp(v, -e) for v in (A, b, c))
            brute = float(np.abs(An + Bn * circle + Cn * circle * circle).max())
            assert abs(An + Bn * z + Cn * z * z) >= brute - 1e-12, (A, b, c, z)


def test_y_argmax_attains_the_brute_force_maximum():
    for yin in y_oracle_inputs():
        at_argmax = disk_objective(yin.A, yin.B, yin.C, y_argmax(yin))
        brute = y_brute_force(yin)
        assert brute - y_tol(brute) <= at_argmax <= brute + y_tol(brute), (
            yin, y_branch(yin), at_argmax, brute)


def test_y_argmax_attains_the_closed_form_on_every_branch():
    inputs = [yin for yin, _, _ in BRANCH_EXEMPLARS] + y_regime_inputs(np.random.default_rng(7), 300)
    inputs += [YInput(0.0, 0.0, 0.0), YInput(0.0, 1.0, 0.0), YInput(0.0, 0.0, -2.0),
               YInput(2.0, 0.0, 0.0), YInput(-1.0, 0.0, 0.5)]
    seen = Counter()
    for yin in inputs:
        seen[y_branch(yin)] += 1
        z = y_argmax(yin)
        assert abs(z) <= 1 + 1e-15, yin
        got = disk_objective(yin.A, yin.B, yin.C, z)
        assert abs(got - y_closed_form(yin)) <= 1e-12, (yin, y_branch(yin), got)
    assert set(seen) == {b for _, b, _ in BRANCH_EXEMPLARS}


def y_rational_inputs(rng, n):
    """n small rational triples from each of two regimes: a box of ratios, and
    a tiny |A| against an opposite-sign C (the minus parabola)."""
    def ratio():
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    out = []
    for _ in range(n):
        out.append((ratio(), ratio(), ratio()))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(4, 19), 20)
        out.append((-c * Fraction(rng.randint(1, 5), 100), Fraction(rng.randint(-10, 10), 10), c))
    return out


def test_y_pieces_place_each_real_maximizer_exactly():
    # over rationals, every branch but R.sqrt attains its Y exactly at the real
    # point sgn(s) sgn(B) r of the closed disk that the ladder returns with it
    def sgn(x):
        return -1 if x < 0 else 1

    inputs = [tuple(map(Fraction, (yin.A, yin.B, yin.C))) for yin, _, _ in BRANCH_EXEMPLARS]
    inputs += y_rational_inputs(random.Random(30), 60)
    seen = Counter()
    for A, B, C in inputs:
        value, branch, s, r = lemmas._y_pieces(A, B, C)
        if r is None:
            continue
        seen[branch] += 1
        z = sgn(s) * sgn(B) * r
        assert abs(z) <= 1, (A, B, C, branch, z)
        assert abs(A + B * z + C * z * z) + 1 - z * z == value, (A, B, C, branch, z)
    assert set(seen) == {b for _, b, _ in BRANCH_EXEMPLARS} - {"R.sqrt"}
    assert min(seen.values()) >= 3, seen


def test_form_max_scales_y_and_takes_the_circle_limit():
    rng = np.random.default_rng(8)
    circle = np.exp(1j * np.linspace(0.0, 2 * np.pi, 20000, endpoint=False))

    def top(A, B, C, W):
        return float(form_max(*np.array([[A], [B], [C], [W]]))[0])

    for A, B, C in rng.uniform(-2, 2, size=(200, 3)).tolist():
        for W in (0.5, 3.0):
            want = W * y_closed_form(YInput(A / W, B / W, C / W))
            # the form with weight -W peaks as high, with tau3 turned around;
            # the array route is the scalar one, bit for bit
            for w in (W, -W):
                assert top(A, B, C, w) == want, (A, B, C, w)
                tau2, tau3 = form_argmax(A, B, C, w)
                assert abs(disk_objective(A, B, C, tau2, W) - top(A, B, C, w)) <= 1e-12
                at = A + B * tau2 + C * tau2 * tau2 + w * (1 - abs(tau2) ** 2) * tau3
                assert abs(abs(at) - top(A, B, C, W)) <= 1e-12, (A, B, C, w)
        # W = 0: the maximum modulus on the circle, against a dense circle scan
        brute = float(np.abs(A + B * circle + C * circle * circle).max())
        assert brute - 1e-12 <= top(A, B, C, 0.0) <= brute + 1e-6, (A, B, C)
        z = form_argmax(A, B, C, 0.0)[0]
        assert abs(abs(z) - 1) <= 1e-15
        assert abs(abs(A + B * z + C * z * z) - top(A, B, C, 0.0)) <= 1e-12


# (|A|, |C|) where the i.sum and i.parabola conditions meet, and where R.sqrt
# meets R.drop-c and R.drop-a
SEAM_SUM = ((0.5, 0.2), (1.5, 0.4), (2.0, 0.9))
SEAM_DROP_C = ((5.0, 0.9), (3.0, 1.2))
SEAM_DROP_A = ((0.3, 2.0), (0.1, 3.0))


def test_y_seam_continuity():
    # branch pairs agree where their conditions meet
    for a, c in SEAM_SUM:
        b = 2 * (1 - c)
        first = a + b + c
        second = 1 + a + b * b / (4 * (1 - c))
        assert first == pytest.approx(second, rel=1e-12)
    # |AB| = |C|(|B| + 4|A|) joins the sqrt fallback with the drop-c branch
    for a, c in SEAM_DROP_C:
        b = 4 * a * c / (a - c)
        drop_c = a + b - c
        root = (c + a) * math.sqrt(1 + b * b / (4 * a * c))
        assert drop_c == pytest.approx(root, rel=1e-12)
    # |AB| = |C|(|B| - 4|A|) joins it with the drop-a branch
    for a, c in SEAM_DROP_A:
        b = 4 * a * c / (c - a)
        drop_a = -a + b + c
        root = (c + a) * math.sqrt(1 + b * b / (4 * a * c))
        assert drop_a == pytest.approx(root, rel=1e-12)


# --- the ladder, bit for bit -------------------------------------------------------

Y_GOLDEN = Path(__file__).parent / "data" / "y_golden.json"
# the command line's inputs past the float range (see the CI workflow), and
# maxima past it, which y_closed_form rejects
Y_EXTREMES = [(-1e-200, 1e-30, 1e-150), (-0.5, 1e17, 0.5), (1e300, -1e300, 1e300),
              (-3e160, 2e160, 1e160), (-1e300, 0.0, 1e10), (-1.0, 0.0, 1e-200),
              (1e308, 1e308, 1e308), (-1e308, 1e308, 1e308)]


def y_golden_fixed_inputs():
    """The inputs of y_golden.json that need no generator: the exemplars, the
    sign grid, and every sign of the seam points (with the neighbouring |B|
    on each side) and of the extremes."""
    seams = [(a, 2 * (1 - c), c) for a, c in SEAM_SUM]
    seams += [(a, 4 * a * c / (a - c), c) for a, c in SEAM_DROP_C]
    seams += [(a, 4 * a * c / (c - a), c) for a, c in SEAM_DROP_A]
    points = [(a, math.nextafter(b, to), c) for a, b, c in seams for to in (0.0, b, math.inf)]
    points += [tuple(map(abs, abc)) for abc in Y_EXTREMES]
    signs = list(itertools.product((1.0, -1.0), repeat=3))
    out = [(yin.A, yin.B, yin.C) for yin, _, _ in BRANCH_EXEMPLARS] + SIGN_GRID
    out += [(sa * a, sb * b, sc * c) for a, b, c in points for sa, sb, sc in signs]
    return out


def y_golden_record(A, B, C) -> list:
    """``[A, B, C, value, branch, s, r]`` of ``_y_pieces(A, B, C)``, every float
    as ``float.hex`` (so -0.0 keeps its sign) and an int as itself, or
    ``[A, B, C, None, "raises: <message>", None, None]`` where it rejects."""
    def enc(x):
        return x if x is None or isinstance(x, int) else float.hex(x)

    try:
        pieces = lemmas._y_pieces(A, B, C)
    except ValueError as exc:
        pieces = None, f"raises: {exc}", None, None
    value, branch, s, r = pieces
    return [enc(A), enc(B), enc(C), enc(value), branch, enc(s), enc(r)]


def write_y_golden():
    """Record the ladder as it stands on the fixed inputs and on 100 inputs of
    each seeded regime of :func:`y_regime_inputs`, one record a line."""
    regimes = [(yin.A, yin.B, yin.C) for yin in y_regime_inputs(np.random.default_rng(31), 100)]
    records = [y_golden_record(*abc) for abc in y_golden_fixed_inputs() + regimes]
    Y_GOLDEN.write_text("[\n" + ",\n".join(map(json.dumps, records)) + "\n]\n")


def test_y_pieces_match_the_golden_file_bit_for_bit():
    # every value, label, sign source and radius of the ladder, and every
    # rejection, as recorded in y_golden.json; the file's inputs are read
    # from it, so a change of numpy's streams cannot move them
    golden = json.loads(Y_GOLDEN.read_text())
    for record in golden:
        assert y_golden_record(*map(float.fromhex, record[:3])) == record, record
    inputs = {tuple(record[:3]) for record in golden}
    assert {tuple(map(float.hex, abc)) for abc in y_golden_fixed_inputs()} <= inputs
    labels = Counter(record[4] for record in golden)
    assert set(labels) == {b for _, b, _ in BRANCH_EXEMPLARS} | {
        "raises: a branch condition compares two values that are not finite: "
        "the inputs are too large"}
    assert min(labels.values()) >= 10, labels
    assert sum(record[3] == "inf" for record in golden) >= 4


# --- |c2 - v c1^2| ------------------------------------------------------------------

def test_lemma23_bound_values():
    assert lemma23_bound(0.25) == 2
    assert lemma23_bound(1.25) == 3
    assert lemma23_bound(0) == 2
    assert lemma23_bound(-0.5) == 4
    with pytest.raises(ValueError):
        lemma23_bound(float("nan"))


def test_overflowing_results_are_rejected():
    huge = YInput(1e308, 1e308, 1e308)
    for fn in (y_closed_form, y_branch):
        with pytest.raises(ValueError, match="finite"):
            fn(huge)
    for v in (1e308, -1e308):
        with pytest.raises(ValueError, match="finite"):
            lemma23_bound(v)
    for weights, fn in (((1e308, 1e308, 1e308), psi_plus_bound),
                        ((1e308, 0.0, 1e308), psi_plus_bound),
                        ((1e308, 1e308, 1e308), psi_minus_bound),
                        ((1e308, 0.0, 0.0), psi_minus_bound)):
        with pytest.raises(ValueError, match="finite"):
            fn(PsiInput(*weights))


@pytest.mark.parametrize("v", [0.25, 1.25, 0.5, -0.5, 2.0])
def test_lemma23_empirical_approaches_bound(v):
    emp = lemma23_empirical(v)
    bound = lemma23_bound(v)
    assert emp <= bound + 1e-9
    assert emp >= bound - 1e-9  # extremes sit on grid corners


def polar_grid(n_r, n_theta):
    """Flat polar grid of the closed unit disk: n_r radii (0 and 1 included)
    by n_theta angles (0 included, 2 pi left out)."""
    r = np.linspace(0.0, 1.0, n_r)[:, None]
    return (r * np.exp(1j * np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False))[None, :]).ravel()


def dense_tau_grid_extremes(objective, t1s, n_r, n_theta):
    """(min, max) of ``objective(tau1, tau2)`` over the tau1 points ``t1s``
    by a polar tau2 grid: a plain dense (tau1, |tau2|, arg tau2) grid."""
    vals = objective(np.asarray(t1s)[:, None], polar_grid(n_r, n_theta)[None, :])
    return float(vals.min()), float(vals.max())


def lemma23_grid_max(v, samples):
    """Brute-force oracle of lemma23_empirical: |c2 - v c1^2| on its own tau1
    grid by a polar tau2 grid of the disk."""
    def objective(t1, tau2):
        c1 = 2 * t1
        c2 = 2 * t1 * t1 + 2 * (1 - t1 * t1) * tau2
        return np.abs(c2 - v * c1 * c1)

    t1s = np.linspace(0.0, 1.0, samples)
    return dense_tau_grid_extremes(objective, t1s, max(2, samples // 4), samples + samples % 2)[1]


def test_lemma23_empirical_dominates_the_two_dimensional_scan():
    rng = np.random.default_rng(23)
    for v in [0.25, 1.25, 0.5, -0.5, 2.0, 0.0, 1.0] + rng.uniform(-2, 3, 12).tolist():
        emp = lemma23_empirical(v)
        assert emp <= lemma23_bound(v) + 1e-9, v
        for samples in (2, 5, 48, 49):
            # the tau2 disk is eliminated exactly, and the profile, linear in
            # t^2, peaks at t = 0 or 1: no tau1 grid of the scan can beat it
            assert emp >= lemma23_grid_max(v, samples) - 1e-12, (v, samples)


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_oracles_reject_fewer_than_two_samples(samples):
    # the tau1 counts are fixed: no samples are accepted, few or many
    with pytest.raises(TypeError, match="samples"):
        lemma23_empirical(0.25, samples=samples)
    with pytest.raises(TypeError, match="samples"):
        lemma24_check(0.25, 0.0, samples=samples)


@pytest.mark.parametrize("samples", [100_001, 10 ** 9])
def test_oracles_reject_samples_above_the_cap(samples):
    with pytest.raises(TypeError, match="samples"):
        lemma23_empirical(0.25, samples=samples)
    with pytest.raises(TypeError, match="samples"):
        lemma24_check(0.25, 0.0, samples=samples)


# --- |c3 - 2B c1 c2 + D c1^3| ----------------------------------------------------------

def test_lemma24_at_log_coefficient_weights():
    report = lemma24_check(0.25, 0.0)
    assert report.passed
    assert report.empirical_max == pytest.approx(2.0, abs=1e-9)


def test_lemma24_trivial_and_corner():
    assert lemma24_check(0.0, 0.0).empirical_max == pytest.approx(2.0, abs=1e-9)
    assert lemma24_check(1.0, 1.0).empirical_max == pytest.approx(2.0, abs=1e-9)


def test_lemma24_rejects_outside_hypothesis():
    with pytest.raises(ValueError):
        lemma24_check(1.2, 0.5)
    with pytest.raises(ValueError):
        lemma24_check(0.5, 0.6)
    with pytest.raises(ValueError):
        lemma24_check(0.9, 0.0)


def test_lemma24_over_hypothesis_region():
    for B in np.linspace(0.0, 1.0, 11):
        lo, hi = B * (2 * B - 1), B
        for D in np.linspace(lo, hi, 11):
            report = lemma24_check(float(B), float(D))
            assert report.passed, (B, D, report.empirical_max)


# brute-force tau3 grid: 41 radii (1 included) by 144 angles, spaced
# 2 pi / 144, so the grid maximum over tau3 is at least cos(pi / 144) times
# the sup over the disk
L24_TAU3 = polar_grid(41, 144)
L24_GRID_SLACK = 1.0 - math.cos(math.pi / 144)


def lemma24_dense(B, D, t1, tau2, tau3=L24_TAU3):
    """|c3 - 2B c1 c2 + D c1^3| at t1, as a (len(tau2), len(tau3)) matrix,
    with (c1, c2, c3) from the coefficient map written out directly."""
    tau2 = np.atleast_1d(tau2)[:, None]
    u = 1.0 - t1 * t1
    c1 = 2.0 * t1
    c2 = 2.0 * t1 * t1 + 2.0 * u * tau2
    c3 = (2.0 * t1 ** 3 + 4.0 * u * t1 * tau2 - 2.0 * u * t1 * tau2 * tau2
          + 2.0 * u * (1.0 - abs(tau2) ** 2) * tau3[None, :])
    return np.abs(c3 - 2.0 * B * c1 * c2 + D * c1 ** 3)


def lemma24_weights(rng):
    B = float(rng.uniform(0.0, 1.0))
    return B, float(rng.uniform(B * (2 * B - 1), B))


# dense (tau2, tau3) grid of the pointwise L24 check; the modulus peaks on
# the circle |tau3| = 1, so tau3 runs over the circle only
L24_DENSE_TAU2 = polar_grid(31, 120)
L24_CIRCLE = np.exp(1j * np.linspace(0.0, 2 * np.pi, 144, endpoint=False))


def lemma24_form(B, D, t1):
    """(A, B', C, W) of c3 - 2B c1 c2 + D c1^3 at tau1, from the rows that
    lemma24_check weights and scans."""
    c3, c1c2, c1_cubed = _lemma24_rows()
    return _horner((c3 - 2.0 * B * c1c2 + D * c1_cubed).T, t1)


def test_lemma24_profile_matches_dense_tau2_tau3_scan():
    rng = np.random.default_rng(24)
    cases = [(*lemma24_weights(rng), float(rng.uniform(0.0, 1.0))) for _ in range(40)]
    cases += [(*lemma24_weights(rng), t1) for t1 in (0.0, 1.0, 0.5)]
    for B, D, t1 in cases:
        # the profile lemma24_check scans, at one tau1
        profile = float(form_max(*lemma24_form(B, D, t1)[:, None])[0])
        brute = float(lemma24_dense(B, D, t1, L24_DENSE_TAU2, L24_CIRCLE).max())
        assert profile >= brute - 1e-12, (B, D, t1, profile, brute)
        # the profile is attained: its maximizer reproduces it, so it does not
        # exceed the true maximum either
        tau2, tau3 = form_argmax(*lemma24_form(B, D, t1).tolist())
        c = coeffs_from_point(CaratheodoryPoint(t1, tau2, tau3))
        at_value = abs(c.c3 - 2 * B * c.c1 * c.c2 + D * c.c1 ** 3)
        assert abs(at_value - profile) <= 1e-12, (B, D, t1, at_value, profile)


def test_lemma24_rows_are_the_exact_tau1_rows_of_its_terms():
    # with u = 1 - tau1^2: c3 = 2 tau1^3 + 4 u tau1 tau2 - 2 u tau1 tau2^2
    # + 2 u (1 - |tau2|^2) tau3, c1 c2 = 4 tau1^3 + 4 u tau1 tau2 and c1^3 = 8 tau1^3
    exact = [_tau1_polynomials(term)
             for term in (lambda c: c.c3, lambda c: c.c1 * c.c2, lambda c: c.c1 ** 3)]
    assert exact == [((2, 0, 0, 0), (-4, 0, 4, 0), (2, 0, -2, 0), (-2, 0, 2)),
                     ((4, 0, 0, 0), (-4, 0, 4, 0), (0,), (0,)),
                     ((8, 0, 0, 0), (0,), (0,), (0,))]
    assert all(type(c) is Fraction for rows in exact for p in rows for c in p)
    padded = [[[0.0] * (4 - len(p)) + [float(c) for c in p] for p in rows] for rows in exact]
    assert _lemma24_rows().tolist() == padded


def test_a_warm_lemma24_check_maps_no_point(monkeypatch):
    lemma24_check(0.25, 0.0)  # derives the rows, once per process
    calls = []
    for name in ("c12", "c3_parts"):
        monkeypatch.setattr(lemmas, name, lambda *args: calls.append(args))
    assert lemma24_check(0.5, 0.1).passed
    assert calls == []


def test_lemma24_check_matches_dense_scan_and_reports_its_maximizer():
    rng = np.random.default_rng(25)
    tau2s = polar_grid(3, 18)
    for _ in range(10):
        B, D = lemma24_weights(rng)
        report = lemma24_check(B, D)
        brute = max(float(lemma24_dense(B, D, float(t1), tau2s).max())
                    for t1 in np.linspace(0.0, 1.0, _L24_SAMPLES))
        assert report.empirical_max >= brute - 1e-12
        assert report.empirical_max - brute <= report.empirical_max * L24_GRID_SLACK + 1e-12
        c = coeffs_from_point(CaratheodoryPoint(*report.at))
        at_value = abs(c.c3 - 2 * B * c.c1 * c.c2 + D * c.c1 ** 3)
        assert abs(at_value - report.empirical_max) <= 1e-12


# --- two-sided |B2 c1^2 + B3 c2| - |B1 c1| ----------------------------------------------

def test_psi_input_validation():
    with pytest.raises(ValueError):
        PsiInput(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PsiInput(-1.0, 1.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf, complex(0, math.nan), complex(math.inf, 0)):
        with pytest.raises(ValueError, match="B2 must be finite"):
            PsiInput(1.0, bad, 1.0)


def test_psi_bounds_log_weights():
    pin = PsiInput(0.25, -1 / 32, 1 / 8)
    assert psi_plus_bound(pin) == pytest.approx(0.25, abs=1e-15)
    assert psi_minus_bound(pin) == pytest.approx(1 / math.sqrt(6), abs=1e-15)


def test_psi_bounds_inverse_weights():
    pin = PsiInput(0.25, 5 / 32, -1 / 8)
    assert pin.B4 == pytest.approx(3 / 8, abs=1e-15)
    assert psi_plus_bound(pin) == pytest.approx(0.25, abs=1e-15)
    assert psi_minus_bound(pin) == pytest.approx(1 / math.sqrt(10), abs=1e-15)


def test_psi_bounds_other_branches():
    assert psi_plus_bound(PsiInput(0.1, 1.0, 0.0)) == pytest.approx(3.8, abs=1e-15)
    assert psi_minus_bound(PsiInput(10.0, 0.0, 1.0)) == pytest.approx(18.0, abs=1e-15)


REFERENCE_PSI_INPUTS = [
    PsiInput(0.25, -1 / 32, 1 / 8),
    PsiInput(0.25, 5 / 32, -1 / 8),
    PsiInput(0.1, 1.0, 0.0),
    PsiInput(10.0, 0.0, 1.0),
]


@pytest.mark.parametrize("pin", REFERENCE_PSI_INPUTS)
def test_psi_empirical_within_and_near_bounds(pin):
    lo, hi = psi_empirical(pin)
    plus, minus = psi_plus_bound(pin), psi_minus_bound(pin)
    assert hi <= plus + 1e-9
    assert lo >= -minus - 1e-9
    assert hi >= plus - 1e-3
    assert lo <= -minus + 1e-3


def psi_grid_extremes(pin):
    """Brute-force oracle of psi_empirical: the functional on the tau1 points
    of psi_empirical's first scan by a polar tau2 grid."""
    def value(t1, tau2):
        c1 = 2 * t1
        c2 = 2 * t1 * t1 + 2 * (1 - t1 * t1) * tau2
        return np.abs(pin.B2 * c1 * c1 + pin.B3 * c2) - pin.B1 * np.abs(c1)

    return dense_tau_grid_extremes(value, np.linspace(0.0, 1.0, _PSI_GRID), 9, 96)


def psi_weights(rng):
    return PsiInput(float(rng.uniform(0.05, 2)), complex(*rng.uniform(-1, 1, 2)),
                    float(rng.uniform(-1, 1)))


def test_psi_empirical_dominates_the_two_dimensional_scan():
    rng = np.random.default_rng(41)
    for pin in REFERENCE_PSI_INPUTS + [psi_weights(rng) for _ in range(12)]:
        lo, hi = psi_empirical(pin)
        brute_lo, brute_hi = psi_grid_extremes(pin)
        # the tau2 disk is eliminated exactly, so only the tau1 grid is left
        assert hi >= brute_hi - 1e-12 and lo <= brute_lo + 1e-12, pin
        assert hi <= psi_plus_bound(pin) + 1e-9 and lo >= -psi_minus_bound(pin) - 1e-9, pin


def test_psi_empirical_reaches_both_bounds():
    # (0.055659, 0.758326, 0.597635): a minimizer at the kink of
    # max(0, B4 t^2 - 2|B3| u), where the 2-D scan stayed 3.3e-3 above the bound
    rng = np.random.default_rng(42)
    defect = PsiInput(0.055659, 0.758326, 0.597635)
    for pin in [defect] + REFERENCE_PSI_INPUTS + [psi_weights(rng) for _ in range(50)]:
        lo, hi = psi_empirical(pin)
        assert abs(hi - psi_plus_bound(pin)) <= 1e-9, pin
        assert abs(lo + psi_minus_bound(pin)) <= 1e-9, pin


# --- scalar case profiles -----------------------------------------------------------------

def test_phi_profile():
    # decreasing on [0, 1], so its maximum is phi(0) = 12
    assert phi(0.0) == 12
    ts = np.linspace(0.0, 1.0 - 1e-4, 200)
    diffs = [phi(t + 1e-4) - phi(t) for t in ts[1:]]
    assert all(d < 0 for d in diffs)


def test_psi_profile_peak():
    assert PSI_ARGMAX == pytest.approx(math.sqrt(2 / 11), abs=1e-15)
    # Psi'(t) = 24 t - 132 t^3 vanishes there, and no grid point is higher
    assert 24 * PSI_ARGMAX - 132 * PSI_ARGMAX ** 3 == pytest.approx(0.0, abs=1e-13)
    assert Psi(PSI_ARGMAX) >= max(Psi(t) for t in np.linspace(0.0, 1.0, 1001))
    assert Psi(PSI_ARGMAX) == pytest.approx(144 / 11, abs=1e-12)


def test_phi_cap_profile_decreasing_and_value():
    # decreasing on [TAU_SPLIT, 1), so its maximum is at TAU_SPLIT
    top = Phi(TAU_SPLIT)
    exact = (254 * math.sqrt(721) - 5507) / 20402
    assert top / 192 == pytest.approx(exact, abs=1e-12)
    assert top / 192 == pytest.approx(0.0643695, abs=1e-6)
    ts = np.linspace(TAU_SPLIT, 1.0 - 2e-4, 150)
    diffs = [Phi(t + 1e-4) - Phi(t) for t in ts]
    assert all(d < 0 for d in diffs)


def test_tau_split_is_quartic_root():
    assert TAU_SPLIT == pytest.approx(0.575109, abs=1e-6)
    assert 101 * TAU_SPLIT ** 4 + 148 * TAU_SPLIT ** 2 - 60 == pytest.approx(0.0, abs=1e-10)
    roots = np.roots([101, 0, 148, 0, -60])
    real_pos = [r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0]
    assert len(real_pos) == 1
    assert real_pos[0] == pytest.approx(TAU_SPLIT, abs=1e-6)


if __name__ == "__main__":  # PYTHONPATH=src python tests/test_lemmas.py
    write_y_golden()
