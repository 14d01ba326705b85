"""Crosstalk clearance predicates over the scheduler's obstacle lists.

Module functions, called as `kernels.clear_from(...)`, so a profiler or
tracer can wrap them at one place. Only the first `n` entries of the
obstacle lists are live. A point blocks unless its squared distance is
>= r2, so a point exactly at distance r is clear and a NaN distance
blocks.
"""
from __future__ import annotations


def clear_from(obs_x: list[float], obs_y: list[float], n: int,
               px: float, py: float, r2: float) -> bool:
    """True iff (px, py) is at squared distance >= r2 from obs[:n]."""
    for i in range(n):
        dx = obs_x[i] - px
        dy = obs_y[i] - py
        if not dx * dx + dy * dy >= r2:
            return False
    return True


def clear_from_except(obs_x: list[float], obs_y: list[float], n: int,
                      px: float, py: float, r2: float, skip: int) -> bool:
    """Like clear_from but obstacle index `skip` is exempt."""
    for i in range(n):
        if i == skip:
            continue
        dx = obs_x[i] - px
        dy = obs_y[i] - py
        if not dx * dx + dy * dy >= r2:
            return False
    return True
