"""The grid scan/refine engine behind every search, and its scalar helpers."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def polar(r, theta):
    """``r e^{i theta}``, elementwise: a complex parameter from polar grids."""
    return r * np.exp(1j * theta)


def _scan(objective, grids):
    vals = objective(*np.ix_(*grids))
    flat = int(np.argmax(vals))
    idx = np.unravel_index(flat, vals.shape)
    return float(vals.flat[flat]), tuple(float(g[i]) for g, i in zip(grids, idx)), vals.size


def _window(center: float, axis, w: float) -> np.ndarray:
    lo, hi, count, periodic = axis
    half = w * (hi - lo) / 2.0
    a, b = center - half, center + half
    if not periodic:
        a, b = max(a, lo), min(b, hi)
    # the incumbent stays a grid member, so a round never loses it
    return np.unique(np.append(np.linspace(a, b, count), center))


def grid_argmax(objective, axes, rounds: int = 0, shrink: float = 0.35):
    """Maximize ``objective`` on a product grid, then on shrinking windows.

    Each axis is ``(lo, hi, count, periodic)``; a periodic axis leaves ``hi``
    out of its grid, and its windows run past ``[lo, hi]`` instead of being
    clamped to it.  ``objective`` gets one open-mesh array per axis (as from
    ``np.ix_``) and returns its values on the whole product grid.  After the
    full scan, round k scans ``count`` points per axis, plus the incumbent, on
    a window of ``shrink**k`` times the axis span centred on the incumbent; a
    candidate replaces the incumbent only when it is strictly larger.

    Returns ``(value, point, evaluations)``: the incumbent value, its
    coordinates and the number of grid points scanned.
    """
    grids = [np.linspace(lo, hi, n, endpoint=not periodic) for lo, hi, n, periodic in axes]
    value, point, evals = _scan(objective, grids)
    for k in range(1, rounds + 1):
        grids = [_window(c, axis, shrink ** k) for c, axis in zip(point, axes)]
        cand, cand_point, n = _scan(objective, grids)
        evals += n
        if cand > value:
            value, point = cand, cand_point
    return value, point, evals


def tau_argmax(objective, n_tau1: int, n_r: int, n_theta: int, rounds: int = 0,
               shrink: float = 0.35):
    """:func:`grid_argmax` of ``objective(tau1, tau2)`` over tau1 in [0, 1] and
    tau2 on a polar grid of the closed unit disk; the point comes back as
    ``(tau1, |tau2|, arg tau2)``."""
    axes = [(0.0, 1.0, n_tau1, False), (0.0, 1.0, n_r, False), (0.0, 2.0 * np.pi, n_theta, True)]
    return grid_argmax(lambda t1, r, th: objective(t1, polar(r, th)), axes, rounds, shrink)


def unit_direction(z: complex) -> complex:
    """``z/|z|``, or 1 when z = 0: the tau on the closed unit disk where
    ``|z + w tau|`` with real ``w >= 0`` peaks, at ``|z| + w``."""
    return z / abs(z) if z != 0 else 1 + 0j


def golden_max(f, lo: float, hi: float, iters: int = 60) -> float:
    """Abscissa of the maximum of a unimodal ``f`` on [lo, hi]."""
    a, b = float(lo), float(hi)
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
    return (a + b) / 2.0
