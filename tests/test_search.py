"""The tau1 scan/refine engine: full-grid argmax, clamped windows, rounds."""

import math

import numpy as np
import pytest

from coeffsharp import _search
from coeffsharp._search import tau1_argmax
from coeffsharp.lemmas import PsiInput, YInput, psi_empirical, y_brute_force
from coeffsharp.verifier import SearchConfig, verify_all


def reference_tau1_argmax(profile, count, rounds=0, shrink=0.35):
    """The scan/refine loop as first written: every window through
    ``np.linspace``, the incumbent appended and the whole grid re-sorted and
    deduplicated by ``np.unique``.  The oracle of the engine's grids."""
    grid = np.linspace(0.0, 1.0, count)
    value, t1, evals = -math.inf, 0.0, 0
    for k in range(rounds + 1):
        if k:
            half = shrink ** k / 2.0
            grid = np.unique(np.append(
                np.linspace(max(t1 - half, 0.0), min(t1 + half, 1.0), count), t1))
        vals = profile(grid)
        i = int(np.argmax(vals))
        evals += grid.size
        if k == 0 or vals[i] > value:
            value, t1 = float(vals[i]), float(grid[i])
    return value, t1, evals


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


def hexed(result):
    value, t1, evals = result
    return value.hex(), t1.hex(), evals


def assert_same_as_reference(profile, count, rounds, shrink):
    """Same result bit for bit, and the same grids byte for byte, as the
    reference loop; every window is ``np.linspace(lo, hi, count)`` plus the
    incumbent."""
    fast, slow = [], []
    got = tau1_argmax(recording(profile, fast), count, rounds, shrink)
    want = reference_tau1_argmax(recording(profile, slow), count, rounds, shrink)
    assert hexed(got) == hexed(want)
    assert [g.tobytes() for g in fast] == [g.tobytes() for g in slow]
    value, t1 = -math.inf, 0.0
    for k, grid in enumerate(fast):
        half = shrink ** k / 2.0
        lo, hi = (max(t1 - half, 0.0), min(t1 + half, 1.0)) if k else (0.0, 1.0)
        window = np.linspace(lo, hi, count)
        assert np.all(np.diff(grid) > 0)
        if np.all(np.diff(window) > 0):
            if grid.size > count:  # the incumbent fell between window points
                grid = np.delete(grid, int(np.flatnonzero(grid == t1)[0]))
            assert grid.tobytes() == window.tobytes()
        vals = profile(grid)
        i = int(np.argmax(vals))
        if k == 0 or vals[i] > value:
            value, t1 = vals[i], float(grid[i])


@pytest.mark.parametrize("seed", range(40))
def test_matches_the_reference_loop_on_random_profiles(seed):
    rng = np.random.default_rng(1000 + seed)
    profile = random_profile(rng)
    count = int(rng.integers(2, 201))
    shrink = float(rng.uniform(0.0, 1.0))
    rounds = int(rng.integers(0, 61))
    assert_same_as_reference(profile, count, rounds, shrink)


@pytest.mark.parametrize("peak", [0.0, 1.0, 0.5, 0.3141592653589793, 1e-300, 1 - 2 ** -53])
@pytest.mark.parametrize("count, shrink", [(2, 0.5), (7, 0.6), (101, 0.35), (200, 0.05)])
def test_matches_the_reference_loop_at_the_edges_and_inside(peak, count, shrink):
    # 60 rounds drive every window below the float spacing around the peak
    assert_same_as_reference(lambda t: -np.abs(t - peak), count, 60, shrink)


@pytest.mark.parametrize("count", [2, 5, 11, 101])
def test_matches_the_reference_loop_on_plateaus(count):
    assert_same_as_reference(lambda t: np.zeros_like(t), count, 40, 0.35)
    assert_same_as_reference(lambda t: np.minimum(t, 0.43), count, 40, 0.5)
    assert_same_as_reference(lambda t: np.minimum(1 - t, 0.2), count, 40, 0.5)


@pytest.mark.parametrize("count", [2, 6, 101])
def test_matches_the_reference_loop_on_nan_profiles(count):
    assert_same_as_reference(lambda t: np.full_like(t, np.nan), count, 10, 0.35)
    assert_same_as_reference(lambda t: np.where(t > 0.7, np.nan, np.sin(9 * t)), count, 40, 0.4)
    assert_same_as_reference(lambda t: np.where(t < 0.25, -t, np.nan), count, 40, 0.3)


@pytest.mark.parametrize("seed", range(10))
def test_windows_are_linspace_plus_the_incumbent(seed):
    # windows of every width down to none, at every magnitude down to subnormal
    rng = np.random.default_rng(2000 + seed)
    for _ in range(300):
        count = int(rng.integers(2, 201))
        scale = 10.0 ** rng.uniform(-320, 0)
        lo = float(rng.uniform(0.0, 1.0)) * scale
        hi = min(lo + float(rng.choice([0.0, 10.0 ** rng.uniform(-330, 0)])), 1.0)
        t1 = float(rng.choice([lo, hi, rng.uniform(lo, hi)]))
        got = _search._window(lo, hi, np.arange(count, dtype=float), t1)
        want = np.unique(np.append(np.linspace(lo, hi, count), t1))
        assert got.tobytes() == want.tobytes(), (lo, hi, t1, count)


def test_normal_rounds_never_deduplicate(monkeypatch):
    calls, unique = [], np.unique
    monkeypatch.setattr(np, "unique", lambda *args, **kw: calls.append(args) or unique(*args, **kw))
    verify_all(SearchConfig())
    psi_empirical(PsiInput(0.25, -0.03125, 0.125))
    y_brute_force(YInput(-0.2, 0.5, 0.3), grid=2000)
    assert calls == []
    # at 40 rounds the windows around tau1 = 1 fall below the float spacing
    verify_all(SearchConfig(refinement_rounds=40))
    assert calls


@pytest.mark.parametrize("kwargs, message", [
    ({"count": 1}, "count"),
    ({"count": 0}, "count"),
    ({"rounds": -1}, "rounds"),
    ({"shrink": 0.0}, "shrink"),
    ({"shrink": 1.0}, "shrink"),
    ({"shrink": -0.5}, "shrink"),
    ({"shrink": math.nan}, "shrink"),
])
def test_rejects_bad_grid_rounds_and_shrink(kwargs, message):
    args = {"count": 5, "rounds": 2, "shrink": 0.5, **kwargs}
    with pytest.raises(ValueError, match=message):
        tau1_argmax(lambda t: t, **args)
