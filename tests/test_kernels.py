"""Crosstalk clearance predicates, called with plain float lists as the
scheduler calls them; numpy is only the reference."""
import math
import random

import numpy as np

from pachinqo import kernels


def _random_case(rng, n):
    xs = [rng.uniform(0, 300) for _ in range(n)]
    ys = [rng.uniform(0, 200) for _ in range(n)]
    px, py = rng.uniform(0, 300), rng.uniform(0, 200)
    return xs, ys, px, py


def _reference(xs, ys, n, px, py, r2, skip=-1):
    dx = np.array(xs[:n]) - px
    dy = np.array(ys[:n]) - py
    d2 = dx * dx + dy * dy
    if 0 <= skip < n:
        d2[skip] = np.inf
    return bool((d2 >= r2).all())


def test_clear_from_against_numpy():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 30)
        xs, ys, px, py = _random_case(rng, n)
        r2 = rng.uniform(1, 400)
        assert kernels.clear_from(xs, ys, n, px, py, r2) == \
            _reference(xs, ys, n, px, py, r2)


def test_clear_from_except_against_numpy():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(0, 30)
        xs, ys, px, py = _random_case(rng, n)
        r2 = rng.uniform(1, 4000)
        skip = rng.randint(-1, n + 1)
        assert kernels.clear_from_except(xs, ys, n, px, py, r2, skip) == \
            _reference(xs, ys, n, px, py, r2, skip)


def test_clear_from_except_skips_index():
    xs = [10.0, 20.0, 30.0]
    ys = [0.0, 0.0, 0.0]
    # (20, 0) is within radius but exempted
    assert kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, 1)
    assert not kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, 0)


def test_out_of_range_skip_exempts_nothing():
    xs = [10.0, 20.0, 30.0]
    ys = [0.0, 0.0, 0.0]
    for skip in (-1, 3, 7):
        assert not kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, skip)
        assert not _reference(xs, ys, 3, 21.0, 0.0, 25.0, skip)


def test_prefix_count_respected():
    xs = [10.0, 11.0]
    ys = [0.0, 0.0]
    # only the first obstacle is live
    assert not kernels.clear_from(xs, ys, 1, 10.5, 0.0, 4.0)
    assert kernels.clear_from(xs, ys, 0, 10.5, 0.0, 4.0)


def test_entries_past_n_are_ignored():
    # The scheduler's lists are longer than the live prefix; the stale
    # tail sits right on the point.
    xs = [0.0, 50.0, 5.0, 5.0]
    ys = [0.0, 0.0, 5.0, 5.0]
    assert kernels.clear_from(xs, ys, 2, 5.0, 5.0, 4.0)
    assert kernels.clear_from_except(xs, ys, 2, 5.0, 5.0, 4.0, 3)
    assert _reference(xs, ys, 2, 5.0, 5.0, 4.0)


def test_point_exactly_at_radius_is_clear():
    xs, ys = [0.0], [0.0]
    assert kernels.clear_from(xs, ys, 1, 3.0, 4.0, 25.0)
    assert kernels.clear_from_except(xs, ys, 1, 3.0, 4.0, 25.0, -1)
    assert _reference(xs, ys, 1, 3.0, 4.0, 25.0)
    assert not kernels.clear_from(xs, ys, 1, 3.0, 4.0, math.nextafter(25.0, 26.0))


def test_nan_coordinate_blocks():
    nan = math.nan
    assert not kernels.clear_from([0.0], [0.0], 1, nan, 0.0, 1.0)
    assert not kernels.clear_from([nan], [0.0], 1, 100.0, 0.0, 1.0)
    assert not kernels.clear_from_except([0.0, nan], [0.0, 0.0], 2,
                                         100.0, 0.0, 1.0, 0)
    assert not _reference([nan], [0.0], 1, 100.0, 0.0, 1.0)
    # An exempt NaN obstacle does not block.
    assert kernels.clear_from_except([nan], [0.0], 1, 100.0, 0.0, 1.0, 0)
