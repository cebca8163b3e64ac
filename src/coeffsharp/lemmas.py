"""Auxiliary sharp maxima: piecewise closed forms next to brute-force oracles.

Two families live here.

* ``Y(A, B, C)`` is the maximum of ``|A + B z + C z^2| + 1 - |z|^2`` over the
  closed unit disk, a seven-branch piecewise formula for real A, B, C.  Its
  oracle searches the radius alone: on each circle the squared modulus is a
  quadratic in cos(arg z), whose maximum over [-1, 1] is exact.  Through Y,
  ``|A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3|`` has a closed-form
  maximum over (tau2, tau3) (``form_max``, ``form_argmax``).
* Sharp bounds for ``|c2 - v c1^2|``, ``|c3 - 2B c1 c2 + D c1^3|`` and
  ``|B2 c1^2 + B3 c2| - |B1 c1|`` over positive-real-part coefficients,
  whose oracles scan profiles of tau1 alone.

With ``c1 = 2 tau1`` a closed form in c1..c3 is such a form in (tau2, tau3),
whose exact tau1 rows ``_tau1_polynomials`` derives for the verifier and the
L24 check alike.  Every oracle scans a fixed count of points and takes no count
argument: it eliminates the angle, or tau2 and tau3, exactly, so a finer grid
would move its answer by rounding at most.  numpy and the search are imported
only where a scan or ``form_max`` runs: the closed forms load neither.

Boundary ties in piecewise conditions resolve to the first listed branch;
the branches agree at the seams (see the seam tests).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from numbers import Rational
from types import SimpleNamespace

from ._poly import Poly
from .caratheodory import c12, c3_parts

_PSI_GRID, _PSI_ROUNDS, _PSI_SHRINK = 121, 10, 0.1  # psi_empirical's tau1 scans
# y_brute_force's radii; each window spans about 2.5 steps of the scan before it
# on each side of the incumbent, and the last reaches the rounding floor
_Y_GRID, _Y_ROUNDS, _Y_SHRINK = 200, 4, 0.05
# tau1 points of the L23 and L24 scans: the L23 profile is linear in t^2, so it
# peaks at t = 0 or 1, and the L24 maximum 2 is attained at t = 0
_L23_SAMPLES, _L24_SAMPLES = 48, 21

__all__ = [
    "YInput",
    "PsiInput",
    "Lemma24Report",
    "y_closed_form",
    "y_branch",
    "y_argmax",
    "y_brute_force",
    "form_coefficients",
    "form_max",
    "form_tau3",
    "form_argmax",
    "lemma23_bound",
    "lemma23_empirical",
    "lemma24_check",
    "psi_plus_bound",
    "psi_minus_bound",
    "psi_empirical",
]


@dataclass(frozen=True)
class YInput:
    """Real coefficients of the disk objective |A + B z + C z^2| + 1 - |z|^2."""

    A: float
    B: float
    C: float

    def __post_init__(self):
        for name in ("A", "B", "C"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PsiInput:
    """Weights of the two-sided functional |B2 c1^2 + B3 c2| - |B1 c1|."""

    B1: float
    B2: complex
    B3: float

    def __post_init__(self):
        if not (math.isfinite(self.B1) and self.B1 > 0):
            raise ValueError("B1 must be positive and finite")
        if not isinstance(self.B2, Rational) and not cmath.isfinite(self.B2):
            raise ValueError("B2 must be finite")
        if not math.isfinite(self.B3):
            raise ValueError("B3 must be finite and real")

    @property
    def B4(self) -> float:
        return abs(4 * self.B2 + 2 * self.B3)


def _y_pieces(A: float, B: float, C: float):
    """``(Y, branch, s, r)``: every branch but ``R.sqrt`` peaks at the real point
    ``sgn(s) sgn(B) r``, with ``B z`` of the sign of the term s it adds to;
    ``R.sqrt`` peaks on the unit circle off the real axis, with s = r = None.
    As the per-point kernel of :func:`form_max` it forms 1 - c, 1 + c and b^2
    once; ``tests/data/y_golden.json`` pins it bit for bit."""
    a, b, c = abs(A), abs(B), abs(C)
    cm = 1 - c
    if not (A < 0 < C or C < 0 < A):  # by the signs: A*C can underflow to -0.0
        if b >= 2 * cm:
            return a + b + c, "i.sum", A or C, 1
        return 1 + a + b * b / (4 * cm), "i.parabola", A or C, b / (2 * cm)
    # A and C have opposite signs from here on, so a, c > 0, and -4AC(1/C^2 - 1)
    # is formed from a/c: 4AC and C*C underflow and overflow long before it does.
    cp, bb = 1 + c, b * b
    inner, outer = 4 * (a / c) * cm * cp, 4 * cp * cp
    # bb, outer >= 0; a NaN fails every comparison, so it is wide too
    wide = not (bb < math.inf and outer < math.inf and -math.inf < inner < math.inf)
    minus = b < 2 * cm  # without it, inner and bb decide nothing
    if wide and minus:
        _check_decided(inner, bb)
    if inner <= bb and minus:
        return 1 - a + bb / (4 * cm), "ii.parabola-minus", C, b / (2 * cm)
    low = inner if inner < outer else outer  # min(outer, inner), NaN and all
    if wide:
        _check_decided(bb, low)
    if bb < low:
        return 1 + a + bb / (4 * cp), "ii.parabola-plus", A, b / (2 * cp)
    # 4ac <= (a - c) b and 4ac <= (c - a) b, divided by a and by c: no 4a is
    # added to a b that absorbs it, and neither side can overflow
    if a > c and 4 * c <= (a - c) / a * b:
        return a + b - c, "R.drop-c", A, 1
    if c > a and 4 * a <= (c - a) / c * b:
        return -a + b + c, "R.drop-a", C, 1
    if wide:  # 4*A*C may overflow
        return _wide_sqrt(a, b, c), "R.sqrt", None, None
    four_ac = 4 * A * C
    value = (c + a) * math.sqrt(1 - bb / four_ac) if four_ac else math.inf
    if value == math.inf:  # 4AC underflowed to -0.0, or b^2/(4AC) overflowed; Y may not
        value = _wide_sqrt(a, b, c)
    return value, "R.sqrt", None, None


def _wide_sqrt(a: float, b: float, c: float) -> float:
    """The ``R.sqrt`` maximum ``(c + a) sqrt(1 + b^2 / (4ac))`` without forming
    4ac: ``(c + a) hypot(1, b / g)`` with ``g = 2 sqrt(a) sqrt(c)``, or, where
    b / g overflows, ``(c + a) / g * hypot(g, b)``."""
    g = 2 * math.sqrt(a) * math.sqrt(c)
    if b / g < math.inf:
        return (c + a) * math.hypot(1, b / g)
    return (c + a) / g * math.hypot(g, b)


def _check_decided(lhs: float, rhs: float) -> None:
    """Reject a comparison of the opposite-sign ladder that rounding left undecided.

    An infinity on one side of a comparison still decides it rightly; a NaN,
    or an infinity on both sides, decides nothing, and the input is rejected.
    The ``R.drop`` rungs compare 4c or 4a with at most b, so they always decide.
    """
    if math.isnan(lhs) or math.isnan(rhs) or (math.isinf(lhs) and math.isinf(rhs)):
        raise ValueError("a branch condition compares two values that are not finite: "
                         "the inputs are too large")


def _finite(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"result is {value}, not finite: the inputs are too large")
    return value


def y_closed_form(yin: YInput) -> float:
    """Closed-form maximum of |A + B z + C z^2| + 1 - |z|^2 over the disk.

    A maximum that overflows is rejected with ValueError, as in y_branch.
    """
    return _finite(_y_pieces(yin.A, yin.B, yin.C)[0])


def y_branch(yin: YInput) -> str:
    """Label of the piecewise branch the closed form takes."""
    pieces = _y_pieces(yin.A, yin.B, yin.C)
    _finite(pieces[0])
    return pieces[1]


def _sgn(x: float) -> float:
    return -1.0 if x < 0 else 1.0


def _y_argmax(A: float, B: float, C: float) -> complex:
    """A point of the closed disk where |A + B z + C z^2| + 1 - |z|^2 attains Y:
    the real point its branch of :func:`_y_pieces` gives, or on ``R.sqrt``
    :func:`_circle_argmax`."""
    _, _, s, r = _y_pieces(A, B, C)
    if r is None:
        return _circle_argmax(A, B, C)
    return complex(_sgn(s) * _sgn(B) * r)


def y_argmax(yin: YInput) -> complex:
    """A maximizer of |A + B z + C z^2| + 1 - |z|^2 over the closed disk."""
    y_closed_form(yin)  # rejects an overflowing maximum
    return _y_argmax(yin.A, yin.B, yin.C)


def _pow2_normalized(A: float, B: float, C: float) -> tuple:
    """``(e, a, b, c)`` with ``(a, b, c) = 2^-e (A, B, C)`` and the largest of |a|,
    |b|, |c| in [1/2, 1) (e = 0 when all are 0): exact unless an entry far below
    the largest underflows, and the largest square lies in [1/4, 1)."""
    e = math.frexp(max(abs(A), abs(B), abs(C)))[1]
    return e, math.ldexp(A, -e), math.ldexp(B, -e), math.ldexp(C, -e)


def _cos_quadratic(a, b, c, r) -> tuple:
    """``(p0, p1, p2)`` with ``|a + b r e^{it} + c r^2 e^{2it}|^2 = p0 + p1 x + p2 x^2``,
    ``x = cos t``, for real a, b, c, r: exact over Fractions, elementwise over
    numpy radii."""
    rr = r * r
    return (a * a + (b * b - 2 * a * c) * rr + c * c * rr * rr,
            2 * b * r * (a + c * rr),
            4 * a * c * rr)


def _circle_argmax(A: float, B: float, C: float) -> complex:
    """A point of the unit circle where |A + B z + C z^2| peaks, for real A, B, C.

    With x = cos(arg z) the squared modulus is the quadratic
    ``p0 + p1 x + p2 x^2`` of :func:`_cos_quadratic` at r = 1, in x on
    [-1, 1], with leading coefficient 4AC: its maximum is at an end or, when
    AC < 0, at the vertex.  The maximizer is scale-free, so A, B, C are
    normalized first (see :func:`_pow2_normalized`): no square overflows, and
    the largest cannot underflow.
    """
    _, A, B, C = _pow2_normalized(A, B, C)
    p0, p1, p2 = _cos_quadratic(A, B, C, 1.0)
    xs = [-1.0, 1.0]
    # by the signs, as in _y_pieces; a p2 that underflows to 0 leaves the
    # quadratic linear to rounding, and an end wins
    if (A < 0 < C or C < 0 < A) and p2:
        vertex = -p1 / (2 * p2)
        if -1.0 < vertex < 1.0:
            xs.append(vertex)
    x = max(xs, key=lambda x: p0 + (p1 + p2 * x) * x)
    return complex(x, math.sqrt(1 - x * x))


def form_coefficients(f) -> tuple:
    """(A, B, C, W) with ``f(tau2, tau3) = A + B tau2 + C tau2^2 + W (1 - |tau2|^2)
    tau3``, read off tau2 in {0, 1, -1} and tau3 in {0, 1}; exact if f is."""
    f0, fp, fm = f(0, 0), f(1, 0), f(-1, 0)
    return f0, (fp - fm) / 2, (fp + fm) / 2 - f0, f(0, 1) - f0


def _horner(coeffs, x):
    """The polynomial with ``coeffs`` (highest degree first) at x, starting
    from the leading coefficient.

    The first product is a new value; on arrays every later step multiplies
    and adds into it in place, so a pass allocates once and never writes to
    ``coeffs`` or ``x``.  Each step rounds as ``value * x + c`` does."""
    value, *rest = coeffs
    if rest:
        value = value * x
        value += rest[0]
        for c in rest[1:]:
            value *= x
            value += c
    return value


@cache
def _coeffs_on_tau1(tau2, tau3) -> SimpleNamespace:
    """c1, c2, c3 at (tau1, tau2, tau3) as exact polynomials in tau1, for
    rational tau2 and tau3; mapped once and shared by every closed form."""
    t1 = Poly((0, 1))
    c1, c2 = c12(t1, tau2)
    head, w = c3_parts(t1, tau2)
    return SimpleNamespace(c1=c1, c2=c2, c3=head + w * tau3)


@cache
def _tau1_polynomials(form) -> tuple:
    """Exact polynomials (A, B, C, W) in tau1, each highest degree first, with

        form(c1, c2, c3) = A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3.

    The closed form runs on c1..c3 as polynomials in tau1, so every
    coefficient is exact whatever its degree; the point (tau2, tau3) =
    (1/2, 1/2) checks the form in tau2 and tau3, as an identity in tau1.
    """
    def at(tau2, tau3):
        return form(_coeffs_on_tau1(tau2, tau3))

    A, B, C, W = form_coefficients(at)
    h = Fraction(1, 2)
    if A + B * h + C * h * h + W * (1 - h * h) * h != at(h, h):
        raise ValueError(f"{form.__name__} is not A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3")
    return tuple(p.coef[::-1] for p in (A, B, C, W))


def _float_rows(polys, width: int = 0):
    """Exact polynomials, highest degree first, as the rows of one float array
    at least ``width`` wide; leading zeros, which change no bit on [0, 1], pad them."""
    import numpy as np

    width = max(width, *map(len, polys))
    return np.array([[0.0] * (width - len(p)) + [float(c) for c in p] for p in polys])


def form_max(A, B, C, W) -> np.ndarray:
    """Maximum of ``|A + B tau2 + C tau2^2 + W (1 - |tau2|^2) tau3|`` over the
    closed bidisk, elementwise over real arrays: over tau3 it is ``|A + B tau2 +
    C tau2^2| + |W| (1 - |tau2|^2)``, and over tau2 ``|W| Y(A/|W|, B/|W|,
    C/|W|)``, or the maximum modulus on the unit circle where W = 0."""
    import numpy as np

    out = []
    for a, b, c, w in zip(A.tolist(), B.tolist(), C.tolist(), np.abs(W).tolist()):
        if w > 0:
            out.append(w * _y_pieces(a / w, b / w, c / w)[0])
        else:
            z = _circle_argmax(a, b, c)
            out.append(abs(a + b * z + c * z * z))
    return np.array(out)


def form_tau3(A: float, B: float, C: float, W: float, tau2: complex) -> complex:
    """The tau3 of the closed disk where the form peaks at a given tau2: the
    direction of ``head`` (of ``-head`` when W < 0), or 1 when head = 0."""
    head = A + B * tau2 + C * tau2 * tau2
    z = head if W >= 0 else -head
    return z / abs(z) if z != 0 else 1 + 0j


def form_argmax(A: float, B: float, C: float, W: float) -> tuple:
    """``(tau2, tau3)`` where :func:`form_max` is attained, for scalar coefficients."""
    w = abs(W)
    tau2 = _y_argmax(A / w, B / w, C / w) if w > 0 else _circle_argmax(A, B, C)
    return tau2, form_tau3(A, B, C, W, tau2)


def _y_radius_profile(A: float, B: float, C: float):
    """The disk objective's maximum over the circle of each radius r, as a
    profile of r for :func:`tau1_argmax` (elementwise over numpy radii).

    A, B, C are normalized first (:func:`_pow2_normalized`), so that no square
    overflows and the largest cannot underflow.  With ``x = cos(arg z)`` the
    squared modulus is the quadratic ``p0 + p1 x + p2 x^2`` of
    :func:`_cos_quadratic`; on [-1, 1] its maximum is the better end,
    ``p0 + |p1| + p2``, unless the quadratic is concave with its vertex
    inside (``2 p2 < -|p1|``), where it is the vertex value
    ``p0 - p1^2 / (4 p2)``.  The vertex is tested only when the normalized a
    and c have opposite signs (the sign test of the closed form): otherwise
    ``p2 = 4 a c r^2`` is >= 0 or -0.0 and the test never holds.  That
    maximum is clamped at 0 (so that rounding can never hand ``sqrt`` a
    negative value, nor a NaN win the argmax), goes through ``sqrt``, is
    multiplied back by the power of two exactly and gets ``1 - r^2``, all in
    place.
    """
    import numpy as np

    exponent, a, b, c = _pow2_normalized(A, B, C)
    opposite = a < 0 < c or c < 0 < a

    def profile(r):
        p0, p1, p2 = _cos_quadratic(a, b, c, r)
        slope = np.abs(p1)
        top = p0 + slope
        top += p2
        if opposite:
            vertex = 2 * p2 < -slope
            if vertex.any():
                top[vertex] = p0[vertex] - p1[vertex] ** 2 / (4 * p2[vertex])
        np.maximum(top, 0.0, out=top)
        np.sqrt(top, out=top)
        if exponent:
            np.ldexp(top, exponent, out=top)
        top += 1.0 - r * r
        return top

    return profile


def y_brute_force(yin: YInput) -> float:
    """Maximum of the disk objective by a search over the radius alone; the
    oracle for y_closed_form.

    At each radius the angle is eliminated exactly (:func:`_y_radius_profile`),
    and :func:`tau1_argmax` scans 200 radii of [0, 1], then windows around the
    incumbent.  It shares nothing with the branch ladder of the closed form.
    """
    from ._search import tau1_argmax

    profile = _y_radius_profile(yin.A, yin.B, yin.C)
    return tau1_argmax(profile, _Y_GRID, _Y_ROUNDS, _Y_SHRINK)[0]


def lemma23_bound(v: float) -> float:
    """Sharp bound for |c2 - v c1^2| over the positive-real-part class."""
    if not math.isfinite(v):
        raise ValueError("v must be finite")
    if v < 0:
        return _finite(-4 * v + 2)
    if v <= 1:
        return 2.0
    return _finite(4 * v - 2)


def lemma23_empirical(v: float) -> float:
    """Grid maximum of |c2 - v c1^2|; approaches lemma23_bound from below.

    With c1 = 2t and u = 1 - t^2, ``c2 - v c1^2 = (2 - 4v) t^2 + 2u tau2``,
    so its sup over the tau2 disk is ``|2t^2 - 4v t^2| + 2u``; that profile
    is scanned at 48 points of t in [0, 1], 0 and 1 among them.
    """
    import numpy as np

    from ._search import tau1_argmax

    def profile(t):
        return np.abs(2.0 * t * t - 4.0 * v * t * t) + 2.0 * (1.0 - t * t)

    return tau1_argmax(profile, _L23_SAMPLES)[0]


@dataclass(frozen=True)
class Lemma24Report:
    empirical_max: float
    passed: bool
    at: tuple


@cache
def _lemma24_rows():
    """The exact (A, B', C, W) rows in tau1 of c3, c1 c2 and c1^3, the terms that
    L24 weights by 1, -2B and D, converted once to a float array (3, 4, width)."""
    terms = (lambda c: c.c3, lambda c: c.c1 * c.c2, lambda c: c.c1 ** 3)
    return _float_rows([p for term in terms for p in _tau1_polynomials(term)]).reshape(3, 4, -1)


def lemma24_check(B: float, D: float) -> Lemma24Report:
    """Empirical maximum of |c3 - 2B c1 c2 + D c1^3|, checked against 2.

    It is ``A + B' tau2 + C tau2^2 + W (1 - |tau2|^2) tau3`` with real A, B',
    C and ``W = 2 (1 - tau1^2)``, the weighted sum of its terms' exact tau1
    rows, so its maximum over (tau2, tau3) is :func:`form_max`, a profile of
    tau1 scanned at 21 points of [0, 1] by one in-place Horner pass over its columns.
    ``at`` holds the maximizing triple, (tau2, tau3) exactly.

    Requires finite B and D with the hypothesis 0 <= B <= 1 and
    B(2B - 1) <= D <= B; anything else is rejected.
    """
    for name, v in (("B", B), ("D", D)):
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite")
    if not (0 <= B <= 1):
        raise ValueError("hypothesis violated: need 0 <= B <= 1")
    if not (B * (2 * B - 1) <= D <= B):
        raise ValueError("hypothesis violated: need B(2B - 1) <= D <= B")
    from ._search import tau1_argmax

    c3, c1c2, c1_cubed = _lemma24_rows()
    rows = (c3 - 2.0 * B * c1c2 + D * c1_cubed).T
    best, t1, _ = tau1_argmax(lambda t: form_max(*_horner(rows[:, :, None], t)), _L24_SAMPLES)
    return Lemma24Report(best, best <= 2.0 + 1e-9, (t1, *form_argmax(*_horner(rows, t1).tolist())))


def psi_plus_bound(pin: PsiInput) -> float:
    """Sharp upper bound for |B2 c1^2 + B3 c2| - |B1 c1|."""
    if abs(2 * pin.B2 + pin.B3) >= abs(pin.B3) + pin.B1:
        return _finite(pin.B4 - 2 * pin.B1)
    return _finite(2 * abs(pin.B3))


def psi_minus_bound(pin: PsiInput) -> float:
    """Sharp upper bound for the negated functional (so a lower bound)."""
    b1, b3, b4 = pin.B1, abs(pin.B3), pin.B4
    if b1 >= b4 + 2 * b3:
        return _finite(2 * b1 - b4)
    if b1 * b1 <= 2 * b3 * (b4 + 2 * b3):
        return _finite(2 * b1 * math.sqrt(2 * b3 / (b4 + 2 * b3)))
    return _finite(2 * b3 + b1 * b1 / (b4 + 2 * b3))


def psi_empirical(pin: PsiInput):
    """Extremes of |B2 c1^2 + B3 c2| - |B1 c1| over the class, as a 1-D search.

    With c1 = 2t and u = 1 - t^2 the modulus is ``|(4 B2 + 2 B3) t^2 + 2 B3 u
    tau2|``, so over the tau2 disk it ranges over ``[max(0, B4 t^2 - 2|B3| u),
    B4 t^2 + 2|B3| u]``, and ``|B1 c1| = 2 B1 t``.  Both sides are scanned
    over t in [0, 1] with shrinking windows; returns (min, max).  Never
    exceeds psi_plus_bound above nor -psi_minus_bound below.
    """
    import numpy as np

    from ._search import tau1_argmax

    b1, b3, b4 = pin.B1, abs(pin.B3), pin.B4

    def top(t):
        return b4 * t * t + 2 * b3 * (1 - t * t) - 2 * b1 * t

    def negated_bottom(t):
        return 2 * b1 * t - np.maximum(0.0, b4 * t * t - 2 * b3 * (1 - t * t))

    vmax = tau1_argmax(top, _PSI_GRID, _PSI_ROUNDS, _PSI_SHRINK)[0]
    vmin = -tau1_argmax(negated_bottom, _PSI_GRID, _PSI_ROUNDS, _PSI_SHRINK)[0]
    return vmin, vmax

