"""The one search engine: ``tau1_argmax`` maximizes any profile over [0, 1]
by a scan, then shrinking windows.  Every search here is such a profile: of
tau1 in the verifier and the L23, L24 and psi oracles, of the radius in the
Y oracle.  Only the verifier's grid and rounds are set, by its config; the
oracles scan at counts fixed in ``lemmas``."""

from __future__ import annotations

import math

import numpy as np


def tau1_argmax(profile, count: int, rounds: int = 0, shrink: float = 0.35):
    """Maximize ``profile`` over [0, 1]: a full grid, then windows.

    ``profile`` maps an array of points of [0, 1] (tau1 values, or the Y
    oracle's radii) to an array of values.  The first scan covers ``count``
    equally spaced points of [0, 1].  Round k then scans ``count`` points,
    plus the incumbent, on a window ``shrink**k`` wide centred on the
    incumbent and clamped to [0, 1]; a candidate replaces the incumbent only
    when it is strictly larger.  Each window's points are those of
    ``np.linspace``, bit for bit, and a window too narrow for distinct floats
    scans each of its distinct points once.

    Returns ``(value, tau1, evaluations)``: the incumbent value, its point and
    the number of points scanned.  Needs ``count >= 2``, ``rounds >= 0`` and
    ``shrink`` in (0, 1).
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not 0 < shrink < 1:
        raise ValueError(f"shrink must lie in (0, 1), got {shrink}")
    steps = np.arange(count, dtype=float)
    grid = _window(0.0, 1.0, steps, 0.0)
    value, t1, evals = -math.inf, 0.0, 0
    for k in range(rounds + 1):
        if k:
            half = shrink ** k / 2.0
            grid = _window(max(t1 - half, 0.0), min(t1 + half, 1.0), steps, t1)
        vals = profile(grid)
        i = int(vals.argmax())
        evals += grid.size
        if k == 0 or vals[i] > value:
            value, t1 = float(vals[i]), float(grid[i])
    return value, t1, evals


def _window(lo: float, hi: float, steps: np.ndarray, t1: float) -> np.ndarray:
    """The sorted distinct points of ``np.linspace(lo, hi, steps.size)`` and
    the incumbent ``t1``, which stays a grid member so a round never loses it.

    The points are formed as numpy forms them, ``steps * step + lo`` with the
    last set to ``hi``, without linspace's call overhead; ``lo`` is added in
    place, the same operation on the same values.  A step of a few ulps can
    round neighbours onto one float, and numpy forms a zero step another
    way, so such a window takes linspace itself and dedupes.
    """
    step = (hi - lo) / (steps.size - 1)
    if step <= 4.0 * math.ulp(hi):
        return np.unique(np.concatenate((np.linspace(lo, hi, steps.size), (t1,))))
    grid = steps * step
    grid += lo
    grid[-1] = hi
    i = int(grid.searchsorted(t1))
    if i < grid.size and grid[i] == t1:
        return grid
    return np.concatenate((grid[:i], (t1,), grid[i:]))

