"""Shared helpers for grid scans with local refinement."""

from __future__ import annotations

import math

import numpy as np

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def window_grid(center: float, width: float, count: int,
                lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Evenly spaced grid on a window around ``center``, incumbent included.

    The window clamps to ``[lo, hi]`` when given; the center itself is always
    a grid member so refinement never regresses.
    """
    a = center - width / 2.0
    b = center + width / 2.0
    if lo is not None:
        a = max(a, lo)
    if hi is not None:
        b = min(b, hi)
    pts = np.linspace(a, b, count)
    return np.unique(np.append(pts, center))


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
