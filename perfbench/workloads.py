"""The four workloads: seeded input generators, items and output checks.

An :class:`Item` is one unit of closed-loop work.  Its ``run(tracer)``
makes the calls into ``coeffsharp`` (each inside a span), then checks the
outputs against values the benchmark derives on its own, and raises
:class:`CheckFailed` when one is wrong.  The generators take the seed as an
argument; ``coeffsharp`` only ever sees the generated inputs.

Calls go through module attributes (``cs.verify``, ``exprs.parse_number``)
at call time, so a test can swap in a broken function and watch the
checks catch it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

import coeffsharp as cs
from coeffsharp import exprs

WORKLOADS = ("verify-2param", "verify-3param", "oracles", "exact")
#: ``coeffsharp verify all`` at the default config: the headline number, run
#: by hand (one pass takes about 50 s, and its 55 MB scan buffers make it
#: too unsteady on a shared host for the workloads above).
HEADLINE = "verify-all"


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Item:
    id: str
    run: Callable  # run(tracer) -> None, raises CheckFailed on a wrong output


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got, want, tol: float) -> bool:
    """Exact equality for two rationals, else |got - want| <= tol."""
    if isinstance(got, Fraction) and isinstance(want, Fraction):
        return got == want
    return abs(complex(got) - complex(want)) <= tol


# --- verify-all / verify-2param ------------------------------------------------

#: theorem id -> (direction, sharp constant), as stated in the paper.
SHARP = {
    "gamma1": ("max", Fraction(1, 2)),
    "gamma2": ("max", Fraction(1, 4)),
    "gamma3": ("max", Fraction(1, 6)),
    "H21_log": ("max", Fraction(1, 16)),
    "Gamma1": ("max", Fraction(1, 2)),
    "Gamma2": ("max", Fraction(3, 8)),
    "H21_inverse": ("max", Fraction(3, 44)),
    "diff_gamma_upper": ("max", Fraction(1, 4)),
    "diff_gamma_lower": ("min", -1 / math.sqrt(6)),
    "diff_Gamma_upper": ("max", Fraction(1, 4)),
    "diff_Gamma_lower": ("min", -1 / math.sqrt(10)),
}
THREE_PARAM = ("gamma3", "H21_log", "H21_inverse")
ATTAIN_TOL, EXCEED_TOL = 1e-4, 1e-9  # acceptance bounds on verify gaps
WITNESS_TOL = 1e-12  # float witnesses; rational ones must be exact

#: grid of the verify-3param workload: one tau1 slice of a 3-parameter scan
#: holds three (9*24)^2 float64 buffers, 1.1 MB, inside a core's 2 MB L2.
#: At the default grid they are 55 MB, and contention for the shared
#: last-level cache moved a default-config pass from 45 s to 60 s.
GRID3_SEARCH = cs.SearchConfig(grid_tau1=41, grid_r=9, grid_theta=24)
#: small search grid for smoke runs; every target still verifies on it.
TINY_SEARCH = cs.SearchConfig(grid_tau1=21, grid_r=5, grid_theta=16)


def _gap(theorem_id: str, empirical: float) -> float:
    direction, const = SHARP[theorem_id]
    return float(const) - empirical if direction == "max" else empirical - float(const)


def verify_item(theorem_id: str, cfg: cs.SearchConfig, label: str = "") -> Item:
    """``verify`` at ``cfg`` plus ``sharpness_witness`` for one target."""
    direction, const = SHARP[theorem_id]

    def run(tr):
        with tr.span("verifier.verify"):
            rep = cs.verify(theorem_id, cfg)
        gap = _gap(theorem_id, rep.empirical_extremum)
        tr.note("verifier.evals", rep.evaluations)
        tr.note("verifier.gap", rep.gap)
        check(rep.passed and -EXCEED_TOL <= gap <= ATTAIN_TOL,
              f"verify {theorem_id}: gap {gap:.3e}, passed={rep.passed}")
        with tr.span("verifier.sharpness_witness"):
            _, fv = cs.sharpness_witness(theorem_id)
        value = fv.value if direction == "min" else abs(fv.value)
        check(_close(value, const, WITNESS_TOL),
              f"witness {theorem_id}: {value!r} != {const}")

    return Item(label + theorem_id, run)


def scan_item(theorem_id: str, cfg: cs.SearchConfig, label: str = "") -> Item:
    """``verify`` without refinement rounds; the initial scan alone.

    A coarse scan need not attain the bound, but it must never exceed it.
    """

    def run(tr):
        with tr.span("verifier.verify"):
            rep = cs.verify(theorem_id, replace(cfg, refinement_rounds=0))
        gap = _gap(theorem_id, rep.empirical_extremum)
        check(gap >= -EXCEED_TOL, f"scan {theorem_id}: bound exceeded, gap {gap:.3e}")

    return Item(f"scan-{label}{theorem_id}", run)


def theorem_ids() -> list[str]:
    """The program's canonical ids, once checked against the table above."""
    ids = list(cs.THEOREM_IDS)
    if set(ids) != set(SHARP):
        raise RuntimeError(f"THEOREM_IDS {ids} do not match the benchmark's table")
    return ids


def search_config(theorem_id: str, tiny: bool = False) -> tuple[cs.SearchConfig, str]:
    """Grid and item label prefix of a target in the verify workloads."""
    three = theorem_id in THREE_PARAM
    cfg = TINY_SEARCH if tiny else GRID3_SEARCH if three else cs.SearchConfig()
    return cfg, ("grid3-" if three else "")


# --- oracles -------------------------------------------------------------------

Y_BRANCHES = ("i.sum", "i.parabola", "ii.parabola-minus", "ii.parabola-plus",
              "R.drop-c", "R.drop-a", "R.sqrt")
Y_TOL = 1e-4  # closed form vs brute force
L23_TOL = 1e-9  # the l23 extremes sit on grid corners
L24_TOL = 1e-9
PSI_SOUND, PSI_ATTAIN = 1e-9, 1e-3
#: the acceptance suite's psi weights, where the lower bound must also be
#: approached within PSI_ATTAIN.  On seeded weights psi_empirical can stay
#: further off the (attained) lower bound, when its minimizer sits at the
#: tip of a V-shaped valley of the grid objective; there the lower side is
#: checked for soundness and the gap is reported, not gated.
PSI_ACCEPTANCE = ((0.25, -1 / 32, 1 / 8), (0.25, 5 / 32, -1 / 8), (0.1, 1.0, 0.0),
                  (10.0, 0.0, 1.0))


def _sign(rng) -> float:
    return float(rng.choice((-1.0, 1.0)))


def _y_wide(rng):
    return tuple(float(v) for v in rng.uniform(-5, 5, 3))


def _y_unit(rng):
    return tuple(float(v) for v in rng.uniform(-1, 1, 3))


def _y_small_a(rng):
    # |A| tiny against C of the opposite sign: the A*C < 0 branches near
    # the parabola seams.
    c = _sign(rng) * rng.uniform(0.2, 0.95)
    return -math.copysign(rng.uniform(0, 0.05), c), float(rng.uniform(-1, 1)), float(c)


def _y_small_c(rng):
    # large |A|, |B| with a small opposite-sign C: the drop-c region.
    a = _sign(rng) * rng.uniform(0.5, 5)
    b = _sign(rng) * rng.uniform(2.5, 5)
    return float(a), float(b), -math.copysign(rng.uniform(0, 0.5), a)


Y_REGIMES = (_y_wide, _y_unit, _y_small_a, _y_small_c)


def oracle_inputs(seed: int, tiny: bool = False) -> dict:
    """Seeded inputs of the oracles workload, grouped by lemma."""
    rng = np.random.default_rng([seed, 1])
    per_regime, n23, n24, npsi = (6, 4, 2, 2) if tiny else (12, 8, 6, 8)
    ys = [regime(rng) for regime in Y_REGIMES for _ in range(per_regime)]
    l23 = [float(v) for v in rng.uniform(-2, 3, n23)]
    l24 = []
    for _ in range(n24):
        b = float(rng.uniform(0, 1))
        l24.append((b, float(rng.uniform(b * (2 * b - 1), b))))
    psi = []
    for _ in range(npsi):
        b1 = float(rng.uniform(0.05, 2))
        b2 = complex(*rng.uniform(-1, 1, 2))
        psi.append((b1, b2, float(rng.uniform(-1, 1))))
    return {"y": ys, "l23": l23, "l24": l24, "psi": psi}


def _y_item(k, abc):
    def run(tr):
        yin = cs.YInput(*abc)
        with tr.span("lemmas.y_closed_form"):
            closed = cs.y_closed_form(yin)
        with tr.span("lemmas.y_branch"):
            branch = cs.y_branch(yin)
        with tr.span("lemmas.y_brute_force"):
            brute = cs.y_brute_force(yin)
        d = abs(closed - brute)
        tr.note("lemmas.y_branch", branch)
        tr.note("lemmas.max_discrepancy.y", d)
        check(d <= Y_TOL, f"Y{abc}: closed {closed} vs brute {brute}")

    return Item(f"y-{k:03d}", run)


def _l23_item(k, v):
    def run(tr):
        with tr.span("lemmas.lemma23_bound"):
            bound = cs.lemma23_bound(v)
        with tr.span("lemmas.lemma23_empirical"):
            emp = cs.lemma23_empirical(v)
        tr.note("lemmas.max_discrepancy.l23", abs(bound - emp))
        check(abs(bound - emp) <= L23_TOL, f"L23 v={v}: bound {bound} vs grid {emp}")

    return Item(f"l23-{k:03d}", run)


def _l24_item(k, bd):
    def run(tr):
        with tr.span("lemmas.lemma24_check"):
            rep = cs.lemma24_check(*bd)
        tr.note("lemmas.max_discrepancy.l24", abs(rep.empirical_max - 2.0))
        check(rep.passed and abs(rep.empirical_max - 2.0) <= L24_TOL,
              f"L24 {bd}: max {rep.empirical_max}, passed={rep.passed}")

    return Item(f"l24-{k:03d}", run)


def _psi_item(k, weights, gate_lower_attainment):
    def run(tr):
        pin = cs.PsiInput(*weights)
        with tr.span("lemmas.psi_plus_bound"):
            plus = cs.psi_plus_bound(pin)
        with tr.span("lemmas.psi_minus_bound"):
            minus = cs.psi_minus_bound(pin)
        with tr.span("lemmas.psi_empirical"):
            lo, hi = cs.psi_empirical(pin)
        tr.note("lemmas.max_discrepancy.psi_plus", abs(plus - hi))
        tr.note("lemmas.max_discrepancy.psi_minus", abs(minus + lo))
        check(plus - PSI_ATTAIN <= hi <= plus + PSI_SOUND,
              f"psi+ {weights}: bound {plus} vs grid {hi}")
        lower_ok = lo <= -minus + PSI_ATTAIN or not gate_lower_attainment
        check(-minus - PSI_SOUND <= lo and lower_ok,
              f"psi- {weights}: bound {-minus} vs grid {lo}")

    return Item(f"psi-{k:03d}", run)


def oracle_items(seed: int, tiny: bool = False) -> list[Item]:
    inp = oracle_inputs(seed, tiny)
    return ([_y_item(k, v) for k, v in enumerate(inp["y"])]
            + [_l23_item(k, v) for k, v in enumerate(inp["l23"])]
            + [_l24_item(k, v) for k, v in enumerate(inp["l24"])]
            + [_psi_item(k, v, False) for k, v in enumerate(inp["psi"])]
            + [_psi_item(100 + k, v, True) for k, v in enumerate(PSI_ACCEPTANCE)])


# --- exact ---------------------------------------------------------------------

EXTREMAL_ORDERS = (8, 32, 64)
STARLIKE_ORDER = 16
FLOAT_TOL = 1e-12
FUNCTIONAL_NAMES = ("gamma1", "gamma2", "gamma3", "Gamma1", "Gamma2", "H21_log",
                    "H21_log_inverse", "diff_gamma", "diff_Gamma")


def _sixteenths(rng, lo, hi):
    return Fraction(int(rng.integers(lo, hi + 1)), 16)


def _parse_case(rng):
    """A command-line constant and the value it denotes."""
    p, q = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return f"{p}/{q}", Fraction(p, q)
    if kind == 1:
        return f"-{p}/{q}", -Fraction(p, q)
    if kind == 2:
        return str(p), Fraction(p)
    if kind == 3:
        return f"sqrt({p}/{q})", math.sqrt(p / q)
    text = f"{rng.uniform(-10, 10):.6f}"
    return text, float(text)


def exact_inputs(seed: int, tiny: bool = False) -> dict:
    """Seeded inputs of the exact workload."""
    rng = np.random.default_rng([seed, 2])
    n_parse, n_exact, n_float, n_omega = (4, 2, 2, 2) if tiny else (12, 16, 24, 12)
    # omega_k = p/(k+1) with p in +-{1, 2, 3}: fixed denominators keep the
    # cost of the rational series nearly the same from seed to seed.
    omegas = [tuple(Fraction(int(rng.choice((-3, -2, -1, 1, 2, 3))), k + 1) for k in range(3))
              for _ in range(n_omega)]
    exact_pts = [(_sixteenths(rng, 0, 16), _sixteenths(rng, -16, 16),
                  _sixteenths(rng, -16, 16)) for _ in range(n_exact)]
    float_pts = []
    for _ in range(n_float):
        r2, r3 = rng.uniform(0, 1, 2)
        th2, th3 = rng.uniform(0, 2 * math.pi, 2)
        float_pts.append((float(rng.uniform(0, 1)), complex(cmath.rect(r2, th2)),
                          complex(cmath.rect(r3, th3))))
    parses = [_parse_case(rng) for _ in range(n_parse)]
    return {"omegas": omegas, "exact_pts": exact_pts, "float_pts": float_pts,
            "parses": parses}


def _extremal_expected(n: int, k: int):
    """Coefficient of z**k in z*exp(z**n/n + z**(2n)/(4n) + O(z**(4n)))."""
    if k == 1:
        return Fraction(1)
    if k == n + 1:
        return Fraction(1, n)
    if k == 2 * n + 1:
        return Fraction(1, 4 * n) + Fraction(1, 2 * n * n)
    if k < 2 * n + 1:
        return Fraction(0)  # below degree 2n+1 only z and z**(n+1) occur
    return None


def _extremal_item(n, order):
    def run(tr):
        with tr.span("series_engine.extremal_function"):
            f = cs.extremal_function(n, order)
        co = f.coeffs
        check(len(co) == order + 1 and co[0] == 0, f"extremal({n},{order}): bad shape")
        for k in range(1, order + 1):
            want = _extremal_expected(n, k)
            if want is None and (k - 1) % n != 0:
                want = Fraction(0)  # only degrees 1 + j*n occur
            check(want is None or co[k] == want,
                  f"extremal({n},{order}): a{k} = {co[k]}, expected {want}")
        tr.note(f"series_engine.max_den_digits.o{order}",
                max(len(str(c.denominator)) for c in co))

    return Item(f"ext-o{order}-n{n}", run)


def _starlike_item(k, omega, mode):
    w1, w2, w3 = omega
    want = (Fraction(0), Fraction(1), w1, w2 / 2 + 3 * w1 * w1 / 4,
            w3 / 3 + 5 * w1 * w2 / 6 + 5 * w1 ** 3 / 12)

    def run(tr):
        om = cs.series([0, w1, w2, w3], mode=mode)
        with tr.span("series_engine.starlike_from_schwarz"):
            f = cs.starlike_from_schwarz(om, STARLIKE_ORDER)
        check(f.mode == mode and f.order == STARLIKE_ORDER, f"starlike {omega}: bad shape")
        for j, w in enumerate(want):
            check(_close(f.coeffs[j], w, FLOAT_TOL),
                  f"starlike {omega} ({mode}): a{j} = {f.coeffs[j]}, expected {w}")

    return Item(f"star-{mode}-{k:03d}", run)


def _coeffs_expected(t1, t2, t3):
    u = 1 - t1 * t1
    m2 = t2.real * t2.real + t2.imag * t2.imag
    return (2 * t1, 2 * t1 * t1 + 2 * u * t2,
            2 * t1 ** 3 + 4 * u * t1 * t2 - 2 * u * t1 * t2 * t2 + 2 * u * (1 - m2) * t3)


def _coeffs_item(k, taus, kind):
    want = _coeffs_expected(*taus)

    def run(tr):
        pt = cs.CaratheodoryPoint(*taus)
        with tr.span("caratheodory.coeffs_from_point"):
            c = cs.coeffs_from_point(pt)
        for j, (got, w) in enumerate(zip((c.c1, c.c2, c.c3), want), 1):
            check(_close(got, w, FLOAT_TOL), f"coeffs {taus}: c{j} = {got}, expected {w}")

    return Item(f"coeffs-{kind}-{k:03d}", run)


def _functionals_item(k, taus, kind):
    """All nine functionals on one triple, with the identities between routes:
    tau forms vs coefficient forms of both determinants, the determinant as
    gamma1*gamma3 - gamma2^2, and both moduli differences."""

    def run(tr):
        pt = cs.CaratheodoryPoint(*taus)
        v = {}
        for name in FUNCTIONAL_NAMES:
            with tr.span("functionals.evaluate_functional"):
                v[name] = cs.evaluate_functional(name, pt).value
        with tr.span("caratheodory.coeffs_from_point"):
            c = cs.coeffs_from_point(pt)
        with tr.span("functionals.evaluate_functional"):
            h_log = cs.evaluate_functional("H21_log", c).value
        with tr.span("functionals.evaluate_functional"):
            h_inv = cs.evaluate_functional("H21_log_inverse", c).value
        with tr.span("functionals.evaluate_functional"):
            g3 = cs.evaluate_functional("gamma3", c).value
        pairs = (
            ("H21_log tau vs coefficient form", v["H21_log"], h_log),
            ("H21_log_inverse tau vs coefficient form", v["H21_log_inverse"], h_inv),
            ("gamma3 via point vs via coefficients", v["gamma3"], g3),
            ("H21_log vs gamma1*gamma3 - gamma2^2", v["H21_log"],
             v["gamma1"] * v["gamma3"] - v["gamma2"] ** 2),
            ("diff_gamma vs |gamma2| - |gamma1|", v["diff_gamma"],
             abs(v["gamma2"]) - abs(v["gamma1"])),
            ("diff_Gamma vs |Gamma2| - |Gamma1|", v["diff_Gamma"],
             abs(v["Gamma2"]) - abs(v["Gamma1"])),
        )
        for label, got, want in pairs:
            check(_close(got, want, FLOAT_TOL), f"{label} at {taus}: {got} != {want}")

    return Item(f"fun-{kind}-{k:03d}", run)


def _parse_item(k, case):
    text, want = case

    def run(tr):
        with tr.span("exprs.parse_number"):
            got = exprs.parse_number(text)
        ok = got == want if isinstance(want, Fraction) else (
            isinstance(got, float) and math.isclose(got, want, rel_tol=1e-15))
        check(ok, f"parse_number({text!r}) = {got!r}, expected {want!r}")

    return Item(f"parse-{k:03d}", run)


def exact_items(seed: int, tiny: bool = False) -> list[Item]:
    inp = exact_inputs(seed, tiny)
    items = [_parse_item(k, c) for k, c in enumerate(inp["parses"])]
    for kind in ("exact", "float"):
        pts = inp[f"{kind}_pts"]
        items += [_coeffs_item(k, t, kind) for k, t in enumerate(pts)]
        items += [_functionals_item(k, t, kind) for k, t in enumerate(pts)]
    for mode in (cs.RATIONAL, cs.COMPLEX):
        items += [_starlike_item(k, om, mode) for k, om in enumerate(inp["omegas"])]
    items += [_extremal_item(n, o) for o in EXTREMAL_ORDERS for n in (1, 2, 3)]
    return items


def build(workload: str, seed: int, tiny: bool = False) -> list[Item]:
    """The fixed item list of one pass over ``workload``."""
    if workload in ("verify-2param", "verify-3param"):
        three = workload == "verify-3param"
        return [verify_item(t, *search_config(t, tiny))
                for t in theorem_ids() if (t in THREE_PARAM) == three]
    if workload == HEADLINE:
        cfg = TINY_SEARCH if tiny else cs.SearchConfig()
        return [verify_item(t, cfg) for t in theorem_ids()]
    if workload == "oracles":
        return oracle_items(seed, tiny)
    if workload == "exact":
        return exact_items(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}; choose from "
                     f"{', '.join(WORKLOADS + (HEADLINE,))}")
