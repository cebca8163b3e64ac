"""The one search engine, a scan of tau1 over [0, 1] with shrinking windows
(every search is a profile of tau1), and its scalar helpers."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def tau1_argmax(profile, count: int, rounds: int = 0, shrink: float = 0.35):
    """Maximize ``profile`` over tau1 in [0, 1]: a full grid, then windows.

    ``profile`` maps an array of tau1 values to an array of values.  The
    first scan covers ``count`` equally spaced points of [0, 1].  Round k
    then scans ``count`` points, plus the incumbent, on a window ``shrink**k``
    wide centred on the incumbent and clamped to [0, 1]; a candidate replaces
    the incumbent only when it is strictly larger.

    Returns ``(value, tau1, evaluations)``: the incumbent value, its tau1 and
    the number of points scanned.
    """
    grid = np.linspace(0.0, 1.0, count)
    value, t1, evals = -math.inf, 0.0, 0
    for k in range(rounds + 1):
        if k:
            half = shrink ** k / 2.0
            # the incumbent stays a grid member, so a round never loses it
            grid = np.unique(np.append(
                np.linspace(max(t1 - half, 0.0), min(t1 + half, 1.0), count), t1))
        vals = profile(grid)
        i = int(np.argmax(vals))
        evals += grid.size
        if k == 0 or vals[i] > value:
            value, t1 = float(vals[i]), float(grid[i])
    return value, t1, evals


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
