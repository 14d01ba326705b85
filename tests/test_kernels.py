"""Crosstalk clearance predicates, called with atom ids and plain float
position lists as the scheduler calls them; numpy is only the reference."""
import math
import random

import numpy as np

from pachinqo import kernels


def _random_case(rng, n):
    """Positions of n atoms, a random subset of them (in random order) as
    obstacles, and a query point."""
    xs = [rng.uniform(0, 300) for _ in range(n)]
    ys = [rng.uniform(0, 200) for _ in range(n)]
    atoms = rng.sample(range(n), rng.randint(0, n))
    px, py = rng.uniform(0, 300), rng.uniform(0, 200)
    return atoms, xs, ys, px, py


def _reference(atoms, xs, ys, px, py, r2, skip=-1):
    kept = [a for a in atoms if a != skip]
    dx = np.array([xs[a] for a in kept], dtype=float) - px
    dy = np.array([ys[a] for a in kept], dtype=float) - py
    return bool((dx * dx + dy * dy >= r2).all())


def test_clear_from_against_numpy():
    rng = random.Random(0)
    for _ in range(200):
        atoms, xs, ys, px, py = _random_case(rng, rng.randint(0, 30))
        r2 = rng.uniform(1, 400)
        assert kernels.clear_from(atoms, xs, ys, px, py, r2) == \
            _reference(atoms, xs, ys, px, py, r2)


def test_clear_from_except_against_numpy():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(0, 30)
        atoms, xs, ys, px, py = _random_case(rng, n)
        r2 = rng.uniform(1, 4000)
        skip = rng.randint(-1, n + 1)
        assert kernels.clear_from_except(atoms, xs, ys, px, py, r2, skip) == \
            _reference(atoms, xs, ys, px, py, r2, skip)


def test_clear_from_except_skips_index():
    xs = [10.0, 20.0, 30.0]
    ys = [0.0, 0.0, 0.0]
    # (20, 0) is within radius but exempted
    assert kernels.clear_from_except([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, 1)
    assert not kernels.clear_from_except([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, 0)


def test_unordered_ids():
    xs = [0.0, 10.0, 20.0, 30.0]
    ys = [0.0, 0.0, 0.0, 0.0]
    atoms = [3, 0, 2]
    assert not kernels.clear_from(atoms, xs, ys, 21.0, 0.0, 25.0)
    assert kernels.clear_from_except(atoms, xs, ys, 21.0, 0.0, 25.0, 2)
    assert not kernels.clear_from_except(atoms, xs, ys, 29.0, 0.0, 25.0, 2)
    assert not _reference(atoms, xs, ys, 21.0, 0.0, 25.0)


def test_atoms_not_in_the_list_are_ignored():
    # Atom 1 sits right on the point but is not an obstacle.
    xs = [0.0, 5.0, 50.0]
    ys = [0.0, 5.0, 0.0]
    assert kernels.clear_from([0, 2], xs, ys, 5.0, 5.0, 4.0)
    assert kernels.clear_from_except([0, 2], xs, ys, 5.0, 5.0, 4.0, 0)
    assert kernels.clear_from([], xs, ys, 5.0, 5.0, 4.0)
    assert _reference([0, 2], xs, ys, 5.0, 5.0, 4.0)


def test_out_of_range_skip_exempts_nothing():
    xs = [10.0, 20.0, 30.0]
    ys = [0.0, 0.0, 0.0]
    for skip in (-1, 3, 7):
        assert not kernels.clear_from_except([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, skip)
        assert not _reference([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, skip)


def test_skip_not_in_the_list_exempts_nothing():
    # Atom 3 has a position but is no obstacle: skipping it leaves atom 1.
    xs = [10.0, 20.0, 30.0, 21.0]
    ys = [0.0, 0.0, 0.0, 0.0]
    assert not kernels.clear_from_except([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, 3)
    assert not _reference([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, 3)
    assert kernels.clear_from_except([0, 1, 2], xs, ys, 21.0, 0.0, 25.0, 1)


def test_point_exactly_at_radius_is_clear():
    xs, ys = [0.0], [0.0]
    assert kernels.clear_from([0], xs, ys, 3.0, 4.0, 25.0)
    assert kernels.clear_from_except([0], xs, ys, 3.0, 4.0, 25.0, -1)
    assert _reference([0], xs, ys, 3.0, 4.0, 25.0)
    assert not kernels.clear_from([0], xs, ys, 3.0, 4.0, math.nextafter(25.0, 26.0))


def test_nan_coordinate_blocks():
    nan = math.nan
    assert not kernels.clear_from([0], [0.0], [0.0], nan, 0.0, 1.0)
    assert not kernels.clear_from([0], [nan], [0.0], 100.0, 0.0, 1.0)
    assert not kernels.clear_from_except([0, 1], [0.0, nan], [0.0, 0.0],
                                         100.0, 0.0, 1.0, 0)
    assert not _reference([0], [nan], [0.0], 100.0, 0.0, 1.0)
    # An exempt NaN obstacle does not block.
    assert kernels.clear_from_except([0], [nan], [0.0], 100.0, 0.0, 1.0, 0)
