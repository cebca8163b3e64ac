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
    oracle's radii) to an array of values.  Every round scans the ``count``
    points of ``np.linspace(lo, hi, count)``, bit for bit: round 0 on [0, 1],
    round k on a window ``shrink**k`` wide centred on the incumbent and
    clamped to [0, 1].  A candidate replaces the incumbent only when it is
    strictly larger, so a window need not hold the incumbent to keep it.  The
    rounds stop at the first window whose step ``(hi - lo) / (count - 1)`` is
    zero: it is the incumbent alone (or, next to 0, narrower than ``count -
    1`` subnormal spacings), and so is every later, narrower window.

    Returns ``(value, tau1, evaluations)``: the incumbent value, its point and
    the number of points scanned, ``count`` per round.  Needs ``count >= 2``,
    ``rounds >= 0`` and ``shrink`` in (0, 1).
    """
    if count < 2:
        raise ValueError(f"count must be >= 2, got {count}")
    if rounds < 0:
        raise ValueError(f"rounds must be >= 0, got {rounds}")
    if not 0 < shrink < 1:
        raise ValueError(f"shrink must lie in (0, 1), got {shrink}")
    steps = np.arange(count, dtype=float)
    lo, hi = 0.0, 1.0
    value, t1, evals = -math.inf, 0.0, 0
    for k in range(rounds + 1):
        if k:
            half = shrink ** k / 2.0
            lo, hi = max(t1 - half, 0.0), min(t1 + half, 1.0)
        step = (hi - lo) / (count - 1)
        if not step:
            break
        # numpy's linspace without its call overhead: the same operations
        grid = steps * step
        grid += lo
        grid[-1] = hi
        vals = profile(grid)
        i = int(vals.argmax())
        evals += count
        if k == 0 or vals[i] > value:
            value, t1 = float(vals[i]), float(grid[i])
    return value, t1, evals
