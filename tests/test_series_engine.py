"""Series algebra: arithmetic, composition, exp/log/cosh, golden expansions."""

import doctest
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coeffsharp.series_engine
from coeffsharp.series_engine import (
    COMPLEX,
    RATIONAL,
    TruncatedSeries,
    _coerce,
    _cosh_sinh_rational,
    antiderivative_over_t,
    compose,
    cosh_series,
    divide_by_z,
    exp_series,
    extremal_function,
    log_series,
    monomial,
    series,
    series_div,
    starlike_from_schwarz,
)


def coeffs(*vals):
    return tuple(F(v) for v in vals)


def test_doctests():
    failures, _ = doctest.testmod(coeffsharp.series_engine)
    assert failures == 0


# --- construction and modes --------------------------------------------------

def test_mode_inference_and_coercion():
    s = series([1, F(1, 2)])
    assert s.mode == RATIONAL and s.coeffs == coeffs(1, F(1, 2))
    t = series([1, 0.5])
    assert t.mode == COMPLEX and t.coeffs == (1 + 0j, 0.5 + 0j)


def test_rational_mode_rejects_floats():
    with pytest.raises(ValueError):
        series([0.5], mode=RATIONAL)


def test_complex_mode_rejects_nonfinite():
    # an input is named as such; an overflow names the series (below)
    with pytest.raises(ValueError, match="complex-mode coefficients must be finite"):
        series([float("nan")])
    with pytest.raises(ValueError, match="complex-mode coefficients must be finite"):
        series([complex(1, float("inf"))])


def test_order_padding_and_truncation():
    s = series([1, 2], order=4)
    assert s.order == 4 and s.coeffs == coeffs(1, 2, 0, 0, 0)
    assert s.truncate(1).coeffs == coeffs(1, 2)


# --- add / mul ----------------------------------------------------------------

def test_add_cancellation():
    assert (series([1, 1]) + series([1, -1])).coeffs == coeffs(2, 0)


def test_add_identity():
    z = monomial(1)
    assert (z + series([0], order=1)).coeffs == z.coeffs


def test_add_coefficientwise():
    got = series([0, 1, 1]) + series([0, 0, 1])
    assert got.coeffs == coeffs(0, 1, 2)


def test_add_mode_mismatch_rejected():
    with pytest.raises(ValueError):
        series([1]) + series([1.0])


def test_mul_difference_of_squares():
    got = series([1, 1], order=2) * series([1, -1], order=2)
    assert got.coeffs == coeffs(1, 0, -1)


def test_mul_truncates():
    z = monomial(1)
    assert (z * z).coeffs == coeffs(0, 0)


def test_mul_square():
    got = series([1, 1, 1]) * series([1, 1, 1])
    assert got.coeffs == coeffs(1, 2, 3)


def test_mixed_orders_truncate_to_smaller():
    a = series([1, 1, 1, 1])
    b = series([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


# --- compose ------------------------------------------------------------------

def test_compose_identity_inner():
    outer = series([1, 1, 1])
    assert compose(outer, monomial(1, 2)).coeffs == outer.coeffs


def test_compose_cosh_with_z_squared():
    ch = cosh_series(monomial(1, 5))
    got = compose(ch, monomial(2, 5))
    assert got.coeffs == coeffs(1, 0, 0, 0, F(1, 2), 0)


def test_compose_identity_outer():
    g = series([0, 2, -1, 3])
    assert compose(monomial(1, 3), g).coeffs == g.coeffs


def test_compose_rejects_unit_inner():
    with pytest.raises(ValueError):
        compose(series([1, 1]), series([1, 1]))


# --- exp / log / cosh ----------------------------------------------------------

def test_exp_of_zero():
    assert exp_series(series([0], order=3)).coeffs == coeffs(1, 0, 0, 0)


def test_exp_of_z():
    got = exp_series(monomial(1, 3))
    assert got.coeffs == coeffs(1, 1, F(1, 2), F(1, 6))


def test_exp_even_series():
    got = exp_series(series([0, 0, F(1, 2), 0, F(1, 8)], order=5))
    assert got.coeffs == coeffs(1, 0, F(1, 2), 0, F(1, 4), 0)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        exp_series(series([1, 1]))


def test_log_of_one():
    assert log_series(series([1], order=2)).coeffs == coeffs(0, 0, 0)


def test_log_exp_round_trip_example():
    a = series([0, 1, 0, 1], order=4)
    assert log_series(exp_series(a)).coeffs == a.coeffs


def test_log_coefficients_of_first_extremal():
    # a2=1, a3=3/4, a4=5/12 gives log(f/z) = z + z^2/4 + 0 z^3: the halves
    # are the logarithmic coefficients 1/2, 1/8, 0.
    f = extremal_function(1, 4)
    got = log_series(divide_by_z(f))
    assert got.coeffs == coeffs(0, 1, F(1, 4), 0)


def test_log_rejects_wrong_constant():
    with pytest.raises(ValueError):
        log_series(series([2, 1]))


def test_cosh_of_zero():
    assert cosh_series(series([0], order=2)).coeffs == coeffs(1, 0, 0)


def test_cosh_of_z():
    got = cosh_series(monomial(1, 4))
    assert got.coeffs == coeffs(1, 0, F(1, 2), 0, F(1, 24))


def test_cosh_of_z_cubed():
    got = cosh_series(monomial(3, 7))
    assert got.coeffs == coeffs(1, 0, 0, 0, 0, 0, F(1, 2), 0)


# --- antiderivative over t ------------------------------------------------------

def test_antiderivative_linear():
    assert antiderivative_over_t(monomial(1)).coeffs == coeffs(0, 1)


def test_antiderivative_termwise():
    got = antiderivative_over_t(series([0, 0, 1, 0, F(1, 2)]))
    assert got.coeffs == coeffs(0, 0, F(1, 2), 0, F(1, 8))


def test_antiderivative_cosh_driver():
    m = monomial(3, 7)
    driver = m + cosh_series(m) - 1
    got = antiderivative_over_t(driver)
    assert got.coeffs == coeffs(0, 0, 0, F(1, 3), 0, 0, F(1, 12), 0)


def test_antiderivative_of_zero_series():
    z = series([0], order=3)
    assert antiderivative_over_t(z).coeffs == z.coeffs


def test_antiderivative_rejects_constant():
    with pytest.raises(ValueError):
        antiderivative_over_t(series([1, 1]))


# --- golden extremal expansions -------------------------------------------------

def test_extremal_function_n1():
    assert extremal_function(1, 4).coeffs == coeffs(0, 1, 1, F(3, 4), F(5, 12))


def test_extremal_function_n2():
    assert extremal_function(2, 5).coeffs == coeffs(0, 1, 0, F(1, 2), 0, F(1, 4))


def test_extremal_function_n3():
    got = extremal_function(3, 7)
    assert got.coeffs == coeffs(0, 1, 0, 0, F(1, 3), 0, 0, F(5, 36))


def test_extremal_function_preconditions():
    with pytest.raises(ValueError):
        extremal_function(0, 4)
    with pytest.raises(ValueError):
        extremal_function(2, 2)


def test_starlike_matches_extremal_for_monomial_schwarz():
    for n in (1, 2, 3):
        direct = starlike_from_schwarz(monomial(n, n + 3), n + 3)
        assert direct.coeffs == extremal_function(n, n + 3).coeffs


def test_starlike_from_half_plane_schwarz():
    # p = (1+z)/(1-z) has omega = z, reproducing the first extremal function
    p = series([1] + [2] * 8)
    om = series_div(p - 1, p + 1)
    f = starlike_from_schwarz(om, 4)
    assert f.coeffs == coeffs(0, 1, 1, F(3, 4), F(5, 12))


# --- invariants -----------------------------------------------------------------

@st.composite
def rational_tail_series(draw, max_order=6):
    order = draw(st.integers(min_value=1, max_value=max_order))
    vals = draw(st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=8),
        min_size=order, max_size=order,
    ))
    return series([0] + vals)


@given(rational_tail_series())
@settings(max_examples=60, deadline=None)
def test_round_trip_log_of_exp(a):
    assert log_series(exp_series(a)).coeffs == a.coeffs


@given(rational_tail_series())
@settings(max_examples=60, deadline=None)
def test_round_trip_exp_of_log(a):
    b = a + 1  # unit constant term
    assert exp_series(log_series(b)).coeffs == b.coeffs


@given(rational_tail_series())
@settings(max_examples=40, deadline=None)
def test_cosh_is_composition_with_cosh_of_z(a):
    via_compose = compose(cosh_series(monomial(1, a.order)), a)
    assert cosh_series(a).coeffs == via_compose.coeffs


@given(rational_tail_series())
@settings(max_examples=40, deadline=None)
def test_antiderivative_derivative_relation(a):
    s = antiderivative_over_t(a)
    assert all(k * s.coeffs[k] == a.coeffs[k] for k in range(1, a.order + 1))


def test_truncation_stability_of_golden_series():
    for n, order in ((1, 4), (2, 5), (3, 7)):
        wide = extremal_function(n, order + 3)
        assert wide.truncate(order).coeffs == extremal_function(n, order).coeffs
    m = monomial(1, 8)
    phi0 = m + cosh_series(m)
    m11 = monomial(1, 11)
    assert (m11 + cosh_series(m11)).truncate(8).coeffs == phi0.coeffs


def test_series_div_round_trip():
    a = series([1, F(1, 2), F(-2, 3), 5], order=5)
    b = series([2, -1, F(1, 7), 0, 1], order=5)
    assert series_div(a * b, b).coeffs == a.coeffs


# --- the recurrence and the shift against the plain dense forms ---------------------

def dense_exp_series(a):
    """exp(a) by the plain recurrence, every weight j*a_j formed inside the k loop."""
    out = [_coerce(1, a.mode)]
    for k in range(1, a.order + 1):
        acc = _coerce(0, a.mode)
        for j in range(1, k + 1):
            acc += j * a.coeffs[j] * out[k - j]
        out.append(acc / k)
    return TruncatedSeries(tuple(out), a.mode)


def dense_cosh_series(a):
    """cosh(a) as (exp(a) + exp(-a))/2 by the plain recurrence."""
    half = F(1, 2) if a.mode == RATIONAL else 0.5
    return (dense_exp_series(a) + dense_exp_series(-a)) * half


def dense_starlike(omega, order):
    """z * exp(...) as the dense series product of monomial(1) and the exponential
    of the antiderivative of the integrand, built with the dense cosh."""
    om = series(omega.coeffs, order=order, mode=omega.mode)
    s = antiderivative_over_t(om + dense_cosh_series(om) - 1)
    return monomial(1, order, mode=om.mode) * dense_exp_series(s)


def seeded_driver(rng, order, mode, density):
    """A series with zero constant term; each later coefficient is nonzero with
    probability ``density`` (0 gives the all-zero driver)."""
    vals = [0]
    for _ in range(order):
        if rng.random() >= density:
            vals.append(0)
        elif mode == RATIONAL:
            vals.append(F(rng.randint(-9, 9), rng.choice((1, 2, 4))))  # keeps the test fast
        else:
            vals.append(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    return series(vals, mode=mode)


DENSITIES = (0.0, 0.3, 1.0)  # all-zero, sparse and dense drivers


def edge_drivers(mode):
    """Drivers the seeded ones never produce.  In both modes, monomials, whose
    exponentials vanish outside the multiples of their degree.  In complex
    mode also signed zero parts, products that underflow to -0.0
    (1e-200 * -2e-200) and weights j*a_j that overflow."""
    drivers = [series([0] * n + [-3], order=12, mode=mode) for n in (1, 2, 5)]
    if mode == COMPLEX:
        zeros = [complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)]
        drivers += [
            series([0] + zeros * 3),
            series([0, complex(-0.0, 1), zeros[3], complex(1, -0.0), zeros[1],
                    complex(-0.0, -0.5)] + zeros),
            series([0, 1e-200, -1e-200, complex(-1e-200, 1e-200), zeros[3],
                    complex(1e-200, -0.0)], order=10),
            series([0, 0, 1e308], order=8),
            series([0, complex(0.5, -0.0), 0, complex(-0.0, 1e308), -0.0], order=8),
        ]
    return drivers


def exp_outcome(route, a):
    """The repr of the coefficients, or the message of the ValueError raised."""
    try:
        return repr(route(a).coeffs)
    except ValueError as exc:
        return f"ValueError: {exc}"


def same_coeffs(got, want):
    return got.mode == want.mode and repr(got.coeffs) == repr(want.coeffs)


#: divisible by every prime below 64, so ``i * m + 1`` for distinct i in
#: 1..64 are pairwise coprime whenever 61# divides m: a prime dividing two
#: of them divides their difference (j - i) m, but not m
PRIMORIAL_61 = math.prod(p for p in range(2, 62) if all(p % q for q in range(2, p)))


def wide_driver(rng, order):
    """A rational series with zero constant term and up to five nonzero
    coefficients at random degrees: numerators of either sign up to 1e30,
    pairwise coprime denominators between 1e23 and 1e30."""
    step = PRIMORIAL_61 * rng.randrange(1, 10**5)
    vals = [0] * (order + 1)
    count = min(order, rng.randint(1, 5))
    for k, i in zip(rng.sample(range(1, order + 1), count), rng.sample(range(1, 65), count)):
        vals[k] = F(rng.choice((-1, 1)) * rng.randrange(1, 10**30), i * step + 1)
    return series(vals, mode=RATIONAL)


@pytest.mark.parametrize("mode", [RATIONAL, COMPLEX])
def test_exp_series_matches_the_dense_recurrence(mode):
    rng = random.Random(9)
    seeded = [seeded_driver(rng, order, mode, DENSITIES[order % 3]) for order in range(65)]
    outcomes = []
    for a in seeded + edge_drivers(mode):
        outcomes.append(exp_outcome(exp_series, a))
        assert outcomes[-1] == exp_outcome(dense_exp_series, a), a
    # the two drivers whose weights overflow are rejected by both routes, at
    # the degree of the overflowing weight
    raised = [o for o in outcomes if o.startswith("ValueError")]
    assert raised == [f"ValueError: complex-mode coefficient of z^{k} is not finite: "
                      "the series overflows the float range"
                      for k in ((2, 3) if mode == COMPLEX else ())]
    if mode == RATIONAL:
        # the integer sum over a common denominator, where the denominators of
        # the terms of one coefficient differ; reduced Fractions are canonical,
        # so == is the repr test (whose integers can pass the str limit here)
        for order in range(65):
            a = wide_driver(rng, order)
            denominators = [c.denominator for c in a.coeffs if c]
            assert all(math.gcd(p, q) == 1 for i, p in enumerate(denominators)
                       for q in denominators[:i])
            assert exp_series(a).coeffs == dense_exp_series(a).coeffs, a


def test_exp_series_exact_identities_at_order_64():
    rng = random.Random(12)
    for a in [wide_driver(rng, 64) for _ in range(3)] + [seeded_driver(rng, 64, RATIONAL, 1.0)]:
        e = exp_series(a)
        assert (e * exp_series(-a)).coeffs == series([1], order=64).coeffs
        assert log_series(e).coeffs == a.coeffs


@pytest.mark.parametrize("mode", [RATIONAL, COMPLEX])
def test_starlike_shift_matches_the_dense_product(mode):
    rng = random.Random(10)
    for i, order in enumerate(range(1, 65, 3)):
        density = DENSITIES[i % 3]
        om = seeded_driver(rng, min(order, 3), mode, density)
        assert same_coeffs(starlike_from_schwarz(om, order), dense_starlike(om, order)), (
            order, density, om)


@pytest.mark.parametrize("mode", [RATIONAL, COMPLEX])
def test_cosh_and_starlike_match_the_dense_cosh(mode):
    # rational mode runs the coupled cosh/sinh recurrence and feeds the
    # integrand to the exponential as its weights; complex mode keeps two
    # exponentials for cosh and the antiderivative
    rng = random.Random(11)
    drivers = [seeded_driver(rng, order, mode, DENSITIES[order % 3]) for order in range(65)]
    drivers += edge_drivers(mode)
    if mode == RATIONAL:
        drivers += [wide_driver(rng, order) for order in range(65)]
    for a in drivers:
        assert exp_outcome(cosh_series, a) == exp_outcome(dense_cosh_series, a), a
    for i, a in enumerate(drivers[::4]):
        order = 1 + (i * 7) % 40
        om = a.truncate(min(a.order, 3))
        assert exp_outcome(lambda w: starlike_from_schwarz(w, order), om) == exp_outcome(
            lambda w: dense_starlike(w, order), om), (order, om)


def test_cosh_sinh_recurrence_identities_at_order_64():
    rng = random.Random(13)
    one = series([1], order=64).coeffs
    for a in [wide_driver(rng, 64) for _ in range(3)] + [seeded_driver(rng, 64, RATIONAL, 1.0),
                                                         monomial(1, 64), monomial(3, 64)]:
        cosh, sinh = (series(c) for c in _cosh_sinh_rational(a.coeffs, 64))
        assert (cosh * cosh - sinh * sinh).coeffs == one
        assert cosh.coeffs == cosh_series(a).coeffs
        assert sinh.coeffs == ((dense_exp_series(a) - dense_exp_series(-a)) * F(1, 2)).coeffs


@pytest.mark.parametrize("order", [8, 32, 64])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_extremal_function_matches_the_dense_forms(n, order):
    # the nine extremal series of the exact benchmark workload
    assert same_coeffs(extremal_function(n, order), dense_starlike(monomial(n, order), order))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_extremal_log_coefficients_by_integration(n):
    # log(f/z) is the antiderivative of (omega + cosh(omega) - 1)/t: a route
    # through log_series that shares neither the exponential nor the shift
    f = extremal_function(n, 64)
    m = monomial(n, 64)
    want = antiderivative_over_t(m + dense_cosh_series(m) - 1).truncate(63)
    assert log_series(divide_by_z(f)).coeffs == want.coeffs
