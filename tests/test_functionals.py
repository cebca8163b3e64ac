"""Closed-form functionals: frozen values, route equivalences, invariances."""

import cmath
import dataclasses
import itertools
import math
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import Polynomial

from coeffsharp import caratheodory
from coeffsharp.caratheodory import (
    CaratheodoryPoint,
    SchwarzCoeffs,
    coeffs_from_point,
    schwarz_from_p,
)
from coeffsharp.functionals import (
    FUNCTIONAL_NAMES,
    FunctionalValue,
    evaluate_functional,
    hankel_log,
    hankel_log_inverse,
    moduli_diff_Gamma,
    moduli_diff_gamma,
)
from coeffsharp.series_engine import compose, series, series_div, starlike_from_schwarz

from case_profiles import HANKEL_TAU, gamma_from_a, hankel_tau, inverse_from_a, taylor_from_c

F1_COEFFS = SchwarzCoeffs(F(2), F(2), F(2))   # half-plane point
F2_COEFFS = SchwarzCoeffs(F(0), F(2), F(0))   # z^2 point
F3_COEFFS = SchwarzCoeffs(F(0), F(0), F(2))   # z^3 point


def random_coeffs(rng, radius=2.0):
    vals = radius * rng.uniform(0, 1, 3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    return SchwarzCoeffs(*map(complex, vals))


def random_point(rng):
    r = rng.uniform(0, 1, 2)
    th = rng.uniform(0, 2 * np.pi, 2)
    return CaratheodoryPoint(rng.uniform(0, 1),
                             complex(r[0] * np.exp(1j * th[0])),
                             complex(r[1] * np.exp(1j * th[1])))


def exact_points(rng):
    """Twenty rational triples on the 1/16 grid."""
    for _ in range(20):
        k1, k2, k3 = (int(k) for k in rng.integers(-16, 17, 3))
        yield F(abs(k1), 16), F(k2, 16), F(k3, 16)


# --- Taylor coefficients ------------------------------------------------------------

def test_taylor_at_half_plane_point():
    a = taylor_from_c(F1_COEFFS)
    assert (a.a2, a.a3, a.a4) == (1, F(3, 4), F(5, 12))


def test_taylor_pipeline_confirms_a5_value():
    p = series([1, 2, 2, 2, 2], order=8)
    f = starlike_from_schwarz(schwarz_from_p(p), 5)
    assert f.coeffs[4] == F(5, 12)
    assert f.coeffs[5] == F(5, 24)


def test_taylor_at_second_point():
    a = taylor_from_c(SchwarzCoeffs(F(0), F(2), F(0)))
    assert (a.a2, a.a3, a.a4) == (0, F(1, 2), 0)


def test_taylor_at_third_point():
    a = taylor_from_c(SchwarzCoeffs(F(0), F(0), F(2)))
    assert (a.a2, a.a3, a.a4) == (0, 0, F(1, 3))


# --- logarithmic coefficients --------------------------------------------------------

def test_gamma_of_first_extremal():
    g = gamma_from_a(taylor_from_c(F1_COEFFS))
    # gamma2 = (3/4 - 1/2)/2 = 1/8 here; the 1/4 bound is attained by the
    # z^2-driven function, not this one.
    assert (g.gamma1, g.gamma2, g.gamma3) == (F(1, 2), F(1, 8), 0)


def test_gamma_of_second_extremal():
    g = gamma_from_a(taylor_from_c(F2_COEFFS))
    assert (g.gamma1, g.gamma2, g.gamma3) == (0, F(1, 4), 0)


def test_gamma_of_third_extremal():
    g = gamma_from_a(taylor_from_c(F3_COEFFS))
    assert (g.gamma1, g.gamma2, g.gamma3) == (0, 0, F(1, 6))


# --- inverse coefficients -------------------------------------------------------------

def test_inverse_of_first_extremal():
    inv = inverse_from_a(taylor_from_c(F1_COEFFS))
    assert (inv.Gamma1, inv.Gamma2) == (F(-1, 2), F(3, 8))


def test_inverse_of_identity():
    inv = inverse_from_a(taylor_from_c(SchwarzCoeffs(F(0), F(0), F(0))))
    assert (inv.A2, inv.A3, inv.A4) == (0, 0, 0)
    assert (inv.Gamma1, inv.Gamma2, inv.Gamma3) == (0, 0, 0)


def test_inverse_of_second_extremal():
    inv = inverse_from_a(taylor_from_c(F2_COEFFS))
    assert (inv.Gamma1, inv.Gamma2, inv.A3) == (0, F(-1, 4), F(-1, 2))


def test_inverse_composition_is_identity():
    # f(F(w)) = w up to degree 4 for the inverse coefficients
    rng = np.random.default_rng(3)
    for _ in range(25):
        c = random_coeffs(rng)
        a = taylor_from_c(c)
        inv = inverse_from_a(a)
        f = series([0, 1, a.a2, a.a3, a.a4], order=4)
        g = series([0, 1, inv.A2, inv.A3, inv.A4], order=4)
        comp = compose(f, g)
        assert abs(comp.coeffs[1] - 1) < 1e-12
        assert all(abs(comp.coeffs[k]) < 1e-10 for k in (0, 2, 3, 4))


# --- Hankel determinants ----------------------------------------------------------------

def test_hankel_log_frozen_values():
    assert hankel_log(F2_COEFFS) == F(-1, 16)
    assert hankel_log(F1_COEFFS) == F(-1, 64)
    assert hankel_log(SchwarzCoeffs(F(0), F(0), F(0))) == 0


def on_point(name, *taus):
    return evaluate_functional(name, CaratheodoryPoint(*taus)).value


def test_hankel_log_tau_case_values():
    assert on_point("H21_log", F(1), F(0), F(0)) == F(-1, 64)
    assert on_point("H21_log", F(0), F(1), F(0)) == F(-1, 16)
    assert on_point("H21_log", F(1, 2), F(1, 2), F(1)) == F(9, 4) / 192


def test_hankel_inverse_frozen_values():
    assert hankel_log_inverse(F1_COEFFS) == F(3, 64)
    assert hankel_log_inverse(F2_COEFFS) == F(-1, 16)
    s = 2 * math.sqrt(2 / 11)
    assert abs(hankel_log_inverse(SchwarzCoeffs(s, 2.0, s))) == pytest.approx(3 / 44, abs=1e-15)


def test_hankel_inverse_tau_case_values():
    assert on_point("H21_log_inverse", F(1), F(0), F(0)) == F(9, 192)
    got = on_point("H21_log_inverse", math.sqrt(2 / 11), 1.0, 1.0)
    assert abs(got) == pytest.approx(3 / 44, abs=1e-15)
    assert on_point("H21_log_inverse", F(0), F(0), F(1)) == 0


# Alon's Combinatorial Nullstellensatz (1999): a polynomial of degree at most
# 4 in c1, 2 in c2 and 1 in c3 that vanishes on a grid of 5 x 3 x 2 points is
# zero.  Every direct form and its value through the a -> gamma chain obey
# those degrees, so exact equality on the grid proves them equal as polynomials.
C1_GRID = (F(-2), F(-1), F(0), F(1, 3), F(2))
C2_GRID = (F(-1), F(0), F(3, 2))
C3_GRID = (F(-1, 2), F(2))


def inverse_gamma3(c):
    """Gamma3 of the inverse written out in c1..c3; no functional reads it alone."""
    return -9 * c.c1 ** 3 / 64 + 11 * c.c1 * c.c2 / 48 - c.c3 / 12


def test_direct_forms_equal_the_chain_on_a_nullstellensatz_grid():
    for c in itertools.starmap(SchwarzCoeffs, itertools.product(C1_GRID, C2_GRID, C3_GRID)):
        a = taylor_from_c(c)
        g, inv = gamma_from_a(a), inverse_from_a(a)
        via_chain = {
            "gamma1": g.gamma1, "gamma2": g.gamma2, "gamma3": g.gamma3,
            "Gamma1": inv.Gamma1, "Gamma2": inv.Gamma2,
            "H21_log": g.gamma1 * g.gamma3 - g.gamma2 ** 2,
            "H21_log_inverse": inv.Gamma1 * inv.Gamma3 - inv.Gamma2 ** 2,
            # not polynomials, but built from the gamma forms proved here
            "diff_gamma": abs(g.gamma2) - abs(g.gamma1),
            "diff_Gamma": abs(inv.Gamma2) - abs(inv.Gamma1),
        }
        assert via_chain.keys() == set(FUNCTIONAL_NAMES)
        for name, want in via_chain.items():
            got = evaluate_functional(name, c).value
            assert type(got) is F and got == want, (name, c)
        assert inverse_gamma3(c) == inv.Gamma3, c


def test_route_equivalence_gamma_products_rational():
    # determinant through the gamma route equals the c-polynomial, exactly
    rng = np.random.default_rng(11)
    for _ in range(50):
        c = SchwarzCoeffs(*[F(int(v), 16) for v in rng.integers(-32, 33, 3)])
        g = gamma_from_a(taylor_from_c(c))
        assert hankel_log(c) == g.gamma1 * g.gamma3 - g.gamma2 ** 2
        inv = inverse_from_a(taylor_from_c(c))
        assert hankel_log_inverse(c) == inv.Gamma1 * inv.Gamma3 - inv.Gamma2 ** 2


def test_route_equivalence_gamma_products_complex():
    rng = np.random.default_rng(12)
    for _ in range(1000):
        c = random_coeffs(rng)
        g = gamma_from_a(taylor_from_c(c))
        assert cmath.isclose(hankel_log(c), g.gamma1 * g.gamma3 - g.gamma2 ** 2,
                             abs_tol=1e-12)
        inv = inverse_from_a(taylor_from_c(c))
        via_gamma = inv.Gamma1 * inv.Gamma3 - inv.Gamma2 ** 2
        assert cmath.isclose(hankel_log_inverse(c), via_gamma, abs_tol=1e-12)
        a = taylor_from_c(c)
        via_a = (13 * a.a2 ** 4 - 12 * a.a2 ** 2 * a.a3 - 12 * a.a3 ** 2
                 + 12 * a.a2 * a.a4) / 48
        assert cmath.isclose(hankel_log_inverse(c), via_a, abs_tol=1e-12)
        via_a_log = (a.a2 ** 4 - 12 * a.a3 ** 2 + 12 * a.a2 * a.a4) / 48
        assert cmath.isclose(hankel_log(c), via_a_log, abs_tol=1e-12)


def test_route_equivalence_tau_forms():
    # the library's determinants against the paper's tau forms
    rng = np.random.default_rng(13)
    for _ in range(1000):
        pt = random_point(rng)
        for name in HANKEL_TAU:
            want = hankel_tau(name, pt.tau1, pt.tau2, pt.tau3)
            assert cmath.isclose(evaluate_functional(name, pt).value, want, abs_tol=1e-12)
    for taus in exact_points(np.random.default_rng(16)):
        for name in HANKEL_TAU:
            assert on_point(name, *taus) == hankel_tau(name, *taus), (name, taus)


def test_rotation_covariance_of_hankels():
    # H(c1 w, c2 w^2, c3 w^3) = w^4 H(c), so |H| is invariant under rotation.
    # With w a polynomial, each power of w carries a polynomial in c1..c3 of
    # the degrees above, so equality on the Nullstellensatz grid proves it.
    w = Polynomial(np.array([F(0), F(1)], dtype=object))
    for c in itertools.starmap(SchwarzCoeffs, itertools.product(C1_GRID, C2_GRID, C3_GRID)):
        rotated = SimpleNamespace(c1=c.c1 * w, c2=c.c2 * w ** 2, c3=c.c3 * w ** 3)
        for hankel in (hankel_log, hankel_log_inverse):
            got, want = hankel(rotated).coef.tolist(), (w ** 4 * hankel(c)).coef.tolist()
            assert all(type(x) is F for x in got), (hankel.__name__, c)
            assert got == want, (hankel.__name__, c)


# --- moduli differences -------------------------------------------------------------------

def test_diff_gamma_values():
    assert moduli_diff_gamma(SchwarzCoeffs(F(0), F(2))) == F(1, 4)
    assert moduli_diff_gamma(SchwarzCoeffs(F(0), F(0))) == 0


def test_diff_gamma_lower_witness_extracted_from_p():
    # c1, c2 read off the representing function (1 - z^2)/(1 - 2*sqrt(2/3) z + z^2)
    b = 2 * math.sqrt(2 / 3)
    num = series([1, 0, -1], order=6, mode="complex")
    den = series([1, -b, 1], order=6, mode="complex")
    p = series_div(num, den)
    c = SchwarzCoeffs(p.coeffs[1], p.coeffs[2])
    assert c.c1 == pytest.approx(b, abs=1e-14)
    assert c.c2 == pytest.approx(2 / 3, abs=1e-14)
    assert moduli_diff_gamma(c) == pytest.approx(-1 / math.sqrt(6), abs=1e-14)


def test_diff_Gamma_values():
    assert moduli_diff_Gamma(SchwarzCoeffs(F(0), F(2))) == F(1, 4)
    assert moduli_diff_Gamma(SchwarzCoeffs(F(2), F(2))) == F(-1, 8)


def test_diff_Gamma_lower_witness_extracted_from_p():
    b = 2 * math.sqrt(2 / 5)
    num = series([1, b, 1], order=6, mode="complex")
    den = series([1, 0, -1], order=6, mode="complex")
    p = series_div(num, den)
    c = SchwarzCoeffs(p.coeffs[1], p.coeffs[2])
    assert c.c1 == pytest.approx(b, abs=1e-14)
    assert c.c2 == pytest.approx(2.0, abs=1e-14)
    assert moduli_diff_Gamma(c) == pytest.approx(-1 / math.sqrt(10), abs=1e-14)


# --- series pipeline equivalence ------------------------------------------------------------

def test_closed_forms_match_series_pipeline_exact():
    rng = np.random.default_rng(15)
    for _ in range(60):
        vals = [F(int(v), 8) for v in rng.integers(-16, 17, 3)]
        c = SchwarzCoeffs(*vals)
        p = series([1, *vals], order=8)
        f = starlike_from_schwarz(schwarz_from_p(p), 4)
        a = taylor_from_c(c)
        assert (f.coeffs[2], f.coeffs[3], f.coeffs[4]) == (a.a2, a.a3, a.a4)


def test_closed_forms_match_series_pipeline_complex():
    rng = np.random.default_rng(16)
    for _ in range(1000):
        c = random_coeffs(rng)
        p = series([1, c.c1, c.c2, c.c3], order=8)
        f = starlike_from_schwarz(schwarz_from_p(p), 4)
        a = taylor_from_c(c)
        for got, want in zip(f.coeffs[2:5], (a.a2, a.a3, a.a4), strict=True):
            assert cmath.isclose(got, want, abs_tol=1e-12)


# --- dispatcher ------------------------------------------------------------------------------

def test_evaluate_functional_routes():
    fv = evaluate_functional("H21_log", CaratheodoryPoint(F(0), F(1), F(0)))
    assert fv.value == F(-1, 16) and fv.magnitude == 0.0625
    fv = evaluate_functional("gamma1", SchwarzCoeffs(F(2)))
    assert fv.value == F(1, 2)
    fv = evaluate_functional("diff_gamma", SchwarzCoeffs(F(0), F(2)))
    assert fv.value == F(1, 4)


def test_evaluate_functional_validates_full_coefficients_once(monkeypatch):
    calls = []
    validate = SchwarzCoeffs.__post_init__

    def counted(self):
        calls.append(self)
        validate(self)

    monkeypatch.setattr(SchwarzCoeffs, "__post_init__", counted)
    full = SchwarzCoeffs(F(1, 2), F(-1, 3), F(1, 4))
    point = CaratheodoryPoint(F(1, 2), F(1, 3), F(-1, 5))
    for name in FUNCTIONAL_NAMES:
        del calls[:]
        evaluate_functional(name, full)
        assert calls == [], name  # passed through, not rebuilt
        del calls[:]
        evaluate_functional(name, point)
        assert len(calls) <= 1, name  # only coeffs_from_point builds one
    del calls[:]
    assert evaluate_functional("gamma1", SchwarzCoeffs(F(2))).value == F(1, 2)
    assert len(calls) == 2  # the partial input and its zero-filled copy


# --- the coefficients a point keeps ----------------------------------------------------------

EXACT_POINT = (F(3, 16), F(-5, 16), F(7, 16))


def test_points_equal_whether_or_not_their_coefficients_were_computed():
    for taus in (EXACT_POINT, (0.25, complex(0.3, -0.4), complex(-0.5, 0.1))):
        p, q = CaratheodoryPoint(*taus), CaratheodoryPoint(*taus)
        before = repr(p)
        c = coeffs_from_point(p)
        assert coeffs_from_point(p) is c  # kept, not mapped again
        assert p == q and q == p and hash(p) == hash(q)
        assert repr(p) == repr(q) == before
        assert len({p, q}) == 1
        coeffs_from_point(q)
        assert p == q and hash(p) == hash(q)


def test_replace_makes_a_point_with_its_own_coefficients():
    p = CaratheodoryPoint(*EXACT_POINT)
    coeffs_from_point(p)
    same = dataclasses.replace(p)
    assert same == p and repr(same) == repr(p) and "_coeffs" not in vars(same)
    moved = dataclasses.replace(p, tau3=F(-1, 2))
    assert repr(moved) == "CaratheodoryPoint(tau1=Fraction(3, 16), tau2=Fraction(-5, 16), " \
        "tau3=Fraction(-1, 2))"
    want = coeffs_from_point(CaratheodoryPoint(*EXACT_POINT[:2], F(-1, 2)))
    assert coeffs_from_point(moved) == want != coeffs_from_point(p)


def test_nine_functionals_on_a_point_map_its_coefficients_once(monkeypatch):
    calls = []
    map_c3 = caratheodory.c3_parts

    def counted(*args):
        calls.append(args)
        return map_c3(*args)

    monkeypatch.setattr(caratheodory, "c3_parts", counted)
    point = CaratheodoryPoint(*EXACT_POINT)
    for name in FUNCTIONAL_NAMES:
        evaluate_functional(name, point)
    assert len(calls) == 1


def fresh_coeffs(pt):
    """(c1, c2, c3) mapped afresh, past the coefficients the point keeps."""
    c1, c2 = caratheodory.c12(pt.tau1, pt.tau2)
    head, w = caratheodory.c3_parts(pt.tau1, pt.tau2)
    return SchwarzCoeffs(c1, c2, head + w * pt.tau3)


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_functionals_on_a_point_match_the_coefficient_route(kind):
    rng = np.random.default_rng(16)
    if kind == "exact":
        points = [CaratheodoryPoint(*taus) for taus in exact_points(rng)]
    else:
        points = [random_point(rng) for _ in range(20)]
    for pt in points:
        c = fresh_coeffs(pt)
        for name in FUNCTIONAL_NAMES:  # the first call maps, the others reuse
            got = evaluate_functional(name, pt).value
            assert repr(got) == repr(evaluate_functional(name, c).value), (name, pt)


def test_evaluate_functional_rejects_unknown_or_partial():
    with pytest.raises(ValueError):
        evaluate_functional("nope", SchwarzCoeffs(F(2)))
    with pytest.raises(ValueError):
        evaluate_functional("gamma3", SchwarzCoeffs(F(2)))  # needs c2 and c3
    with pytest.raises(ValueError):
        FunctionalValue("nope", 0, None)
