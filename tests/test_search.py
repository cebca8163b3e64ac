"""The tau1 scan/refine engine: full-grid argmax, clamped windows, rounds."""

import numpy as np
import pytest

from coeffsharp._search import tau1_argmax


def random_profile(rng):
    """A random sum of cosines of tau1 (ties are improbable)."""
    terms = rng.uniform(0.5, 30, (3, 3))

    def profile(t1):
        return sum(a * np.cos(b * t1 + c) for a, b, c in terms)

    return profile


def recording(profile, grids):
    def scan(t1):
        grids.append(np.array(t1))
        return profile(t1)

    return scan


@pytest.mark.parametrize("seed", range(20))
def test_no_rounds_is_the_full_grid_argmax(seed):
    rng = np.random.default_rng(seed)
    profile, count = random_profile(rng), int(rng.integers(2, 40))
    grid = np.linspace(0.0, 1.0, count)
    vals = profile(grid)
    value, t1, evals = tau1_argmax(profile, count)
    assert value == np.max(vals)
    assert t1 == grid[np.argmax(vals)]
    assert evals == count


def test_incumbent_never_decreases_across_rounds():
    def rugged(t1):
        return np.sin(37 * t1) * np.cos(23 * t1 * t1) + 0.1 * t1

    values = [tau1_argmax(rugged, 9, rounds=k, shrink=0.5)[0] for k in range(8)]
    assert values == sorted(values)
    assert values[-1] > values[0]


def test_ties_keep_the_first_incumbent():
    def flat(t1):
        return np.zeros_like(t1)

    assert tau1_argmax(flat, 5, rounds=4)[:2] == (0.0, 0.0)
    # a plateau from 0.43: the full grid first reaches it at 0.5, and the
    # points of later windows that reach it (0.45, ...) only tie
    plateau = tau1_argmax(lambda t1: np.minimum(t1, 0.43), 11, rounds=6, shrink=0.5)
    assert plateau[:2] == (0.43, 0.5)


@pytest.mark.parametrize("peak", [0.0, 1.0, 0.02, 0.97])
def test_windows_stay_inside_the_unit_interval(peak):
    grids = []
    value, t1, _ = tau1_argmax(recording(lambda t: -np.abs(t - peak), grids), 7, rounds=6,
                               shrink=0.6)
    assert len(grids) == 7
    for grid in grids:
        assert grid.min() >= 0.0 and grid.max() <= 1.0
        assert np.all(np.diff(grid) > 0)
    if peak in (0.0, 1.0):  # a window at the edge is clamped, not shifted
        assert all(peak in grid for grid in grids)
    assert abs(t1 - peak) <= 0.6 ** 6 / 6
    assert value == -abs(t1 - peak)


def test_evaluations_count_every_scanned_point():
    grids = []
    _, _, evals = tau1_argmax(recording(lambda t: np.cos(3 * t) * np.sin(7 * t), grids), 11,
                              rounds=5, shrink=0.4)
    assert len(grids) == 6
    assert grids[0].size == 11
    # each round scans 11 points, plus the incumbent when it is off them
    assert all(11 <= grid.size <= 12 for grid in grids[1:])
    assert evals == sum(grid.size for grid in grids)
