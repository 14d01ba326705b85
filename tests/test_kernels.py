"""Crosstalk clearance predicates."""
import random

import numpy as np

from pachinqo import kernels


def _random_case(rng, n):
    xs = np.array([rng.uniform(0, 300) for _ in range(n)])
    ys = np.array([rng.uniform(0, 200) for _ in range(n)])
    px, py = rng.uniform(0, 300), rng.uniform(0, 200)
    return xs, ys, px, py


def test_clear_from_against_numpy():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 30)
        xs, ys, px, py = _random_case(rng, n)
        r2 = rng.uniform(1, 400)
        expected = bool(((xs - px) ** 2 + (ys - py) ** 2 >= r2).all()) if n else True
        assert kernels.clear_from(xs, ys, n, px, py, r2) == expected


def test_clear_from_except_skips_index():
    xs = np.array([10.0, 20.0, 30.0])
    ys = np.array([0.0, 0.0, 0.0])
    # (20, 0) is within radius but exempted
    assert kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, 1)
    assert not kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, 0)
    # skip = -1 means no exemption
    assert not kernels.clear_from_except(xs, ys, 3, 21.0, 0.0, 25.0, -1)


def test_prefix_count_respected():
    xs = np.array([10.0, 11.0])
    ys = np.array([0.0, 0.0])
    # only the first obstacle is live
    assert not kernels.clear_from(xs, ys, 1, 10.5, 0.0, 4.0)
    assert kernels.clear_from(xs, ys, 0, 10.5, 0.0, 4.0)
