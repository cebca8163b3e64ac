"""Parameter triples, coefficient map, extremal representatives, Schwarz bridge."""

import ast
import math
import re
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from coeffsharp import caratheodory
from coeffsharp.caratheodory import (
    COEFF_BOUND_TOL,
    TAU_BOUNDARY_TOL,
    CaratheodoryPoint,
    SchwarzCoeffs,
    c3_parts,
    c12,
    coeffs_from_point,
    extremal_p_series,
    mag_squared,
    schwarz_from_p,
)
from coeffsharp.series_engine import monomial, series, series_div


# --- domain types ---------------------------------------------------------------

def test_point_accepts_boundary():
    CaratheodoryPoint(1.0, 1.0, -1.0)
    CaratheodoryPoint(F(0), complex(0, 1), complex(-1, 0))


def test_point_rejects_bad_tau1():
    with pytest.raises(ValueError):
        CaratheodoryPoint(1.5, 0, 0)
    with pytest.raises(ValueError):
        CaratheodoryPoint(-0.1, 0, 0)
    with pytest.raises(ValueError):
        CaratheodoryPoint(0.5 + 0.1j, 0, 0)


def test_point_rejects_outside_disk():
    with pytest.raises(ValueError):
        CaratheodoryPoint(0.5, 1.0 + 1e-6, 0)
    with pytest.raises(ValueError):
        CaratheodoryPoint(0.5, 0, complex(0.8, 0.8))


def test_coeffs_reject_oversized():
    with pytest.raises(ValueError):
        SchwarzCoeffs(2.1)
    with pytest.raises(ValueError):
        SchwarzCoeffs(0, 0, complex(1.5, 1.5))


HUGE = 10**400  # exact, but past the float range


def test_huge_rationals_are_rejected_exactly():
    for big in (HUGE, F(HUGE, 3), F(-HUGE, 7)):
        with pytest.raises(ValueError, match="<= 2"):
            SchwarzCoeffs(big)
        with pytest.raises(ValueError, match="<= 2"):
            SchwarzCoeffs(0, 0, big)
        with pytest.raises(ValueError, match="<= 1"):
            CaratheodoryPoint(0, big, 0)
        with pytest.raises(ValueError, match="<= 1"):
            CaratheodoryPoint(0, 0, big)
    # huge numerators and denominators with a small value are fine
    CaratheodoryPoint(F(HUGE, HUGE + 1), F(-HUGE, HUGE + 1), F(1, HUGE))
    SchwarzCoeffs(F(2 * HUGE - 1, HUGE), F(1, HUGE), F(-2 * HUGE, HUGE))


def test_rationals_past_the_digit_limit_are_rejected_by_their_size():
    # no text can be formed for these, so the message gives their bit lengths
    past = 10 ** sys.get_int_max_str_digits()
    bits = past.bit_length()
    for val, shown in ((past, f"an integer of {bits} bits"),
                       (F(past, 3), f"a ratio of {bits}-bit and 2-bit integers"),
                       (F(-past, 7), f"a ratio of {bits}-bit and 3-bit integers")):
        with pytest.raises(ValueError, match=re.escape(f"|c1| must be <= 2, got {shown}")):
            SchwarzCoeffs(val)
        with pytest.raises(ValueError, match=re.escape(f"|tau2| must be <= 1, got {shown}")):
            CaratheodoryPoint(0, val, 0)
        with pytest.raises(ValueError, match=re.escape(f"tau1 must lie in [0, 1], got {shown}")):
            CaratheodoryPoint(val, 0, 0)


def test_rational_bounds_are_the_exact_values_of_the_float_bounds():
    # x_in^2 <= bound < x_out^2, both within 1e-59 of the bound: as floats the
    # two squares round to the same value, so only an exact test tells them apart
    scale = 10**60
    for bound, build in (((2.0 + COEFF_BOUND_TOL) ** 2, SchwarzCoeffs),
                         ((1.0 + TAU_BOUNDARY_TOL) ** 2, lambda x: CaratheodoryPoint(0, x, 0))):
        root = math.isqrt(F(bound) * scale * scale // 1)
        x_in, x_out = F(root, scale), F(root + 1, scale)
        assert float(x_in * x_in) == float(x_out * x_out) == bound
        build(x_in)
        build(-x_in)
        with pytest.raises(ValueError):
            build(x_out)


NON_FINITE = (math.nan, math.inf, -math.inf, complex(math.nan, 0), complex(0, math.inf))


@pytest.mark.parametrize("bad", NON_FINITE)
def test_coeffs_reject_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        SchwarzCoeffs(bad)
    with pytest.raises(ValueError, match="finite"):
        SchwarzCoeffs(0, 0, bad)


@pytest.mark.parametrize("bad", NON_FINITE + (2.1, complex(1.5, 1.5)))
def test_array_coeffs_check_every_element(bad):
    # coefficients are numbers: an array is refused whole, good elements or bad
    good = np.array([0.5, 1j, -2.0])
    for coeff in (good, np.append(good, bad), np.array(0.5), [0.5]):
        with pytest.raises(ValueError, match="must be a number"):
            SchwarzCoeffs(coeff)
        with pytest.raises(ValueError, match="must be a number"):
            SchwarzCoeffs(0.5, 0.5, coeff)


@pytest.mark.parametrize("module", ("caratheodory", "functionals", "series_engine", "exprs"))
def test_exact_modules_import_no_numpy(module):
    # the map, the closed forms, the series engine and the parser run on numbers alone
    tree = ast.parse((Path(caratheodory.__file__).parent / f"{module}.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    assert imported and "numpy" not in {name.split(".")[0] for name in imported}, module


@pytest.mark.parametrize("bad", NON_FINITE)
def test_point_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        CaratheodoryPoint(0.5, bad, 0)
    with pytest.raises(ValueError):
        CaratheodoryPoint(0.5, 0, bad)
    if not isinstance(bad, complex):
        with pytest.raises(ValueError):
            CaratheodoryPoint(bad, 0, 0)


# --- coefficient map -------------------------------------------------------------

def test_coeffs_at_tau1_equal_one():
    c = coeffs_from_point(CaratheodoryPoint(F(1), 0.3 + 0.1j, -0.7j))
    assert (c.c1, c.c2, c.c3) == (2, 2, 2)


def test_coeffs_at_second_extremal_point():
    c = coeffs_from_point(CaratheodoryPoint(F(0), F(1), F(1, 2)))
    assert (c.c1, c.c2, c.c3) == (0, 2, 0)


def test_coeffs_at_inverse_hankel_witness():
    t = math.sqrt(2 / 11)
    c = coeffs_from_point(CaratheodoryPoint(t, 1.0, 1.0))
    assert c.c1 == pytest.approx(2 * t, abs=1e-15)
    assert c.c2 == pytest.approx(2.0, abs=1e-15)
    assert c.c3 == pytest.approx(2 * t, abs=1e-14)


def written_out_c(t1, t2, t3):
    """c1..c3 of the parameter map, written out as in the module docstring."""
    return (
        2 * t1,
        2 * t1 ** 2 + 2 * (1 - t1 ** 2) * t2,
        2 * t1 ** 3 + 4 * (1 - t1 ** 2) * t1 * t2 - 2 * (1 - t1 ** 2) * t1 * t2 ** 2
        + 2 * (1 - t1 ** 2) * (1 - abs(t2) ** 2) * t3,
    )


def test_raw_map_matches_written_out_formulas():
    # exact over rationals
    for t1, t2, t3 in ((F(1, 3), F(-2, 5), F(3, 7)), (F(0), F(1), F(1, 2)),
                       (F(1), F(-1), F(-1))):
        c1, c2 = c12(t1, t2)
        head, w = c3_parts(t1, t2)
        assert (c1, c2, head + w * t3) == written_out_c(t1, t2, t3)
    # elementwise over complex arrays, with a real weight w >= 0
    rng = np.random.default_rng(12)
    t1 = rng.uniform(0.0, 1.0, (50, 1))
    t2 = np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    t3 = np.sqrt(rng.uniform(0.0, 1.0, 40)) * np.exp(1j * rng.uniform(0, 2 * np.pi, 40))
    c1, c2 = c12(t1, t2)
    head, w = c3_parts(t1, t2)
    assert np.isrealobj(w) and (w >= 0).all()
    for got, want in zip((c1, c2, head + w * t3), written_out_c(t1, t2, t3)):
        assert np.abs(got - want).max() <= 1e-14


def term_by_term_map(t1, t2):
    """c1, c2, head and w written out term by term, each square formed where
    it is used and |tau2|^2 as real^2 + imag^2 for every input."""
    u = 1 - t1 * t1
    return (2 * t1, 2 * t1 * t1 + 2 * u * t2,
            2 * t1 ** 3 + 4 * u * t1 * t2 - 2 * u * t1 * t2 * t2,
            2 * u * (1 - (t2.real * t2.real + t2.imag * t2.imag)))


def same_bits(got, want):
    return (type(got) is type(want) and np.asarray(got).dtype == np.asarray(want).dtype
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_shared_squares_keep_every_float_bit():
    rng = np.random.default_rng(21)
    # tiny tau1 puts tau1^2 among the subnormals, where rounding is coarsest
    t1 = np.concatenate([[0.0, 1.0, 5e-324, 1e-8, 1 - 2.0 ** -53],
                         rng.uniform(1e-162, 1e-158, 50), rng.uniform(0.0, 1.0, 250)])
    r = np.concatenate([[0.0, 1.0, 1.0, 5e-324], np.sqrt(rng.uniform(0.0, 1.0, 196))])
    t2 = r * np.exp(1j * rng.uniform(0, 2 * np.pi, r.size))
    for tau2 in (t2, t2.real, -t2.real):
        for t1_arr, tau2_arr in ((t1[:, None], tau2[None, :]), (t1[:200], tau2)):
            got = (*c12(t1_arr, tau2_arr), *c3_parts(t1_arr, tau2_arr))
            assert all(map(same_bits, got, term_by_term_map(t1_arr, tau2_arr)))
            assert same_bits(mag_squared(tau2_arr), tau2_arr.real ** 2 + tau2_arr.imag ** 2)
        for t, z in zip(t1[::7].tolist(), tau2.tolist()):
            got = (*c12(t, z), *c3_parts(t, z))
            assert all(map(same_bits, got, term_by_term_map(t, z))), (t, z)
            assert same_bits(mag_squared(z), z.real * z.real + z.imag * z.imag), z


def test_mag_squared_is_exact_on_rationals():
    for x, want in ((3, 9), (-3, 9), (True, 1), (F(-5, 7), F(25, 49)), (HUGE, 10**800),
                    (F(HUGE, 3), F(10**800, 9))):
        got = mag_squared(x)
        assert got == want and type(got) is type(want), x


def test_range_check_100k_samples():
    # |c_i| <= 2 across the whole parameter box
    rng = np.random.default_rng(20240211)
    n = 100_000
    t1 = rng.uniform(0.0, 1.0, n)
    t2 = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    t3 = rng.uniform(0.0, 1.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    for i in range(n):
        c = coeffs_from_point(CaratheodoryPoint(t1[i], t2[i], t3[i]))
        assert abs(c.c1) <= 2 + 1e-9
        assert abs(c.c2) <= 2 + 1e-9
        assert abs(c.c3) <= 2 + 1e-9


# --- extremal representing functions ----------------------------------------------

def test_extremal_series_half_plane():
    p = extremal_p_series(CaratheodoryPoint(1.0, 0.0, 0.0), 5)
    assert np.allclose(p.coeffs, [1, 2, 2, 2, 2, 2])


def test_extremal_series_z_squared_stratum():
    p = extremal_p_series(CaratheodoryPoint(0.0, 1.0, 0.0), 6)
    assert np.allclose(p.coeffs, [1, 0, 2, 0, 2, 0, 2])


def test_extremal_series_surd_stratum():
    t = math.sqrt(2 / 11)
    p = extremal_p_series(CaratheodoryPoint(t, 1.0, 0.0), 5)
    assert np.allclose(p.coeffs, [1, 2 * t, 2, 2 * t, 2, 2 * t])


def test_extremal_series_rejects_interior():
    with pytest.raises(ValueError, match="interior of every stratum"):
        extremal_p_series(CaratheodoryPoint(0.5, 0.5, 0.5), 4)
    with pytest.raises(ValueError, match="interior of every stratum"):
        extremal_p_series(CaratheodoryPoint(F(1, 2), F(1, 2), F(-1, 2)), 4)
    # within the float tolerance of the circle, but a rational tau2 is on it only exactly
    with pytest.raises(ValueError, match="interior of every stratum"):
        extremal_p_series(CaratheodoryPoint(0, 1 - F(1, 10**13), F(1, 2)), 4)


@pytest.mark.parametrize("taus", [
    (F(1), F(1, 2), F(-1, 3)),       # tau1 = 1
    (F(1, 3), F(-1), F(1, 2)),       # |tau2| = 1
    (F(1, 2), F(-1, 3), F(-1)),      # |tau3| = 1
    (F(2, 7), F(3, 5), F(1)),
])
def test_extremal_series_exact_on_rational_strata(taus):
    # a rational boundary triple gives an exact p whose c1..c3 are the map's
    pt = CaratheodoryPoint(*taus)
    p = extremal_p_series(pt, 6)
    c = coeffs_from_point(pt)
    assert p.mode == "rational" and p.coeffs[0] == 1
    assert p.coeffs[1:4] == (c.c1, c.c2, c.c3)


@pytest.mark.parametrize("pt", [
    CaratheodoryPoint(1.0, 0.3 + 0.4j, 0.2),
    CaratheodoryPoint(0.3, np.exp(0.7j), 0.1 - 0.2j),
    CaratheodoryPoint(0.0, 1.0, 0.9),
    CaratheodoryPoint(0.6, 0.2 - 0.5j, np.exp(2.1j)),
    CaratheodoryPoint(0.0, 0.0, -1.0),
])
def test_extremal_series_consistent_with_coefficient_map(pt):
    p = extremal_p_series(pt, 6)
    c = coeffs_from_point(pt)
    assert p.coeffs[1] == pytest.approx(c.c1, abs=1e-12)
    assert p.coeffs[2] == pytest.approx(c.c2, abs=1e-12)
    assert p.coeffs[3] == pytest.approx(c.c3, abs=1e-12)


# --- Schwarz bridge -----------------------------------------------------------------

def test_schwarz_of_half_plane_map():
    p = series([1] + [2] * 6)
    om = schwarz_from_p(p)
    assert om.coeffs == monomial(1, 6).coeffs


def test_schwarz_of_z_squared_map():
    p = series([1, 0, 2, 0, 2, 0, 2])
    om = schwarz_from_p(p)
    assert om.coeffs == monomial(2, 6).coeffs


def test_schwarz_of_linear_p():
    om = schwarz_from_p(series([1, 2, 0, 0, 0]))
    assert om.coeffs == tuple(F(v) for v in (0, 1, -1, 1, -1))


def test_schwarz_rejects_wrong_constant():
    with pytest.raises(ValueError):
        schwarz_from_p(series([2, 1]))


def test_schwarz_displayed_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(50):
        c = rng.uniform(-1, 1, 8)
        c1, c2, c3, c4 = (complex(c[2 * i], c[2 * i + 1]) for i in range(4))
        p = series([1, c1, c2, c3, c4], order=6)
        om = schwarz_from_p(p)
        assert om.coeffs[0] == 0
        assert om.coeffs[1] == pytest.approx(c1 / 2, abs=1e-13)
        assert om.coeffs[2] == pytest.approx((c2 - c1 ** 2 / 2) / 2, abs=1e-13)
        assert om.coeffs[3] == pytest.approx((c3 - c1 * c2 + c1 ** 3 / 4) / 2, abs=1e-13)
        expected4 = (c4 - c1 * c3 + 3 * c1 ** 2 * c2 / 4 - c2 ** 2 / 2 - c1 ** 4 / 8) / 2
        assert om.coeffs[4] == pytest.approx(expected4, abs=1e-13)


@pytest.mark.parametrize("pt", [
    CaratheodoryPoint(1.0, 0.0, 0.0),
    CaratheodoryPoint(0.4, np.exp(1.3j), 0.0),
    CaratheodoryPoint(0.0, 1.0, 0.0),
    CaratheodoryPoint(0.2, 0.5j, np.exp(0.4j)),
    CaratheodoryPoint(0.7, -0.3, -1.0),
])
def test_schwarz_bridge_admissible_near_boundary(pt):
    # omega(0) = 0 and |omega| < 1 on |z| = 0.99; the order is taken high
    # enough that the truncation tail on that circle stays below 1e-3.
    om = schwarz_from_p(extremal_p_series(pt, 1200))
    assert om.coeffs[0] == 0
    for k in range(16):
        z = 0.99 * np.exp(2j * np.pi * k / 16)
        assert abs(om.evaluate(z)) < 1.0
