"""Crosstalk clearance predicates over the scheduler's obstacle arrays.

Module functions, called as `kernels.clear_from(...)`, so a profiler or
tracer can wrap them at one place.
"""
from __future__ import annotations

import numpy as np


def clear_from(obs_x: np.ndarray, obs_y: np.ndarray, n: int,
               px: float, py: float, r2: float) -> bool:
    """True iff (px, py) is at squared distance >= r2 from obs[:n]."""
    if n == 0:
        return True
    dx = obs_x[:n] - px
    dy = obs_y[:n] - py
    return bool((dx * dx + dy * dy >= r2).all())


def clear_from_except(obs_x: np.ndarray, obs_y: np.ndarray, n: int,
                      px: float, py: float, r2: float, skip: int) -> bool:
    """Like clear_from but obstacle index `skip` is exempt."""
    if n == 0:
        return True
    dx = obs_x[:n] - px
    dy = obs_y[:n] - py
    d2 = dx * dx + dy * dy
    if 0 <= skip < n:
        d2[skip] = np.inf
    return bool((d2 >= r2).all())
