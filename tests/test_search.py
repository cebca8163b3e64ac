"""The grid scan/refine engine: full-grid argmax, periodic windows, rounds."""

import math

import numpy as np
import pytest

from coeffsharp._search import grid_argmax


def full_grids(axes):
    return [np.linspace(lo, hi, n, endpoint=not periodic) for lo, hi, n, periodic in axes]


def random_separable(rng):
    """Random axes and a sum of per-axis cosines (ties are improbable)."""
    dims = int(rng.integers(1, 4))
    axes, terms = [], []
    for _ in range(dims):
        lo = float(rng.uniform(-2, 1))
        axes.append((lo, lo + float(rng.uniform(0.5, 3)), int(rng.integers(2, 12)),
                     bool(rng.integers(0, 2))))
        terms.append(tuple(rng.uniform(0.5, 3, 3)))

    def objective(*xs):
        return sum(a * np.cos(b * x + c) for (a, b, c), x in zip(terms, xs))

    return objective, axes


@pytest.mark.parametrize("seed", range(20))
def test_no_rounds_is_the_full_grid_argmax(seed):
    objective, axes = random_separable(np.random.default_rng(seed))
    grids = full_grids(axes)
    vals = objective(*np.meshgrid(*grids, indexing="ij"))
    value, point, evals = grid_argmax(objective, axes)
    assert value == np.max(vals)
    idx = np.unravel_index(np.argmax(vals), vals.shape)
    assert point == tuple(float(g[i]) for g, i in zip(grids, idx))
    assert evals == vals.size


def test_periodic_axis_wraps_below_its_start():
    # the peak at -0.01 lies outside [0, 2 pi); a clamped window never gets there
    def objective(theta):
        return np.cos(theta + 0.01)

    value, (theta,), _ = grid_argmax(objective, [(0.0, 2 * math.pi, 16, True)], rounds=6)
    assert theta < 0
    assert abs(theta + 0.01) <= 1e-3
    assert value == pytest.approx(1.0, abs=1e-6)
    _, (clamped,), _ = grid_argmax(objective, [(0.0, 2 * math.pi, 16, False)], rounds=6)
    assert clamped >= 0


def test_incumbent_never_decreases_across_rounds():
    def rugged(x, y):
        return np.sin(37 * x) * np.cos(23 * y) + 0.1 * x

    axes = [(0.0, 1.0, 9, False), (0.0, 2 * math.pi, 7, True)]
    values = [grid_argmax(rugged, axes, rounds=k, shrink=0.5)[0] for k in range(8)]
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_ties_keep_the_first_incumbent():
    def flat(x, y):
        return np.zeros(np.broadcast_shapes(x.shape, y.shape))

    axes = [(0.25, 1.0, 5, False), (0.0, 2 * math.pi, 6, True)]
    value, point, _ = grid_argmax(flat, axes, rounds=4)
    assert (value, point) == (0.0, (0.25, 0.0))


def test_evaluations_count_every_scanned_point():
    sizes = []

    def objective(x, y, z):
        vals = np.cos(3 * x) + np.sin(2 * y) * np.cos(z)
        sizes.append(vals.size)
        return vals

    axes = [(0.0, 1.0, 11, False), (0.0, 1.0, 5, False), (0.0, 2 * math.pi, 8, True)]
    _, _, evals = grid_argmax(objective, axes, rounds=5, shrink=0.4)
    assert len(sizes) == 6
    assert sizes[0] == 11 * 5 * 8
    assert evals == sum(sizes)
