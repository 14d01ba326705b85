"""Crosstalk clearance predicates over the compiler's obstacle atoms.

Module functions, called as `kernels.clear_from(...)`, so a profiler or
tracer can wrap them at one place. Obstacles are atom ids, read at their
current positions in `xs` and `ys`. A point blocks unless its squared
distance is >= r2, so a point exactly at distance r is clear and a NaN
distance blocks.
"""
from __future__ import annotations


def clear_from(atoms: list[int], xs: list[float], ys: list[float],
               px: float, py: float, r2: float) -> bool:
    """True iff (px, py) is at squared distance >= r2 from every atom."""
    for a in atoms:
        dx = xs[a] - px
        dy = ys[a] - py
        if not dx * dx + dy * dy >= r2:
            return False
    return True


def clear_from_except(atoms: list[int], xs: list[float], ys: list[float],
                      px: float, py: float, r2: float, skip: int) -> bool:
    """Like clear_from but atom `skip` is exempt."""
    for a in atoms:
        if a == skip:
            continue
        dx = xs[a] - px
        dy = ys[a] - py
        if not dx * dx + dy * dy >= r2:
            return False
    return True
