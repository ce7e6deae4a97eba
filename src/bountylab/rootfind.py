"""Bracketing bisection for strictly decreasing scalar functions.

Every fixed-point equation in the package reduces to a root of a strictly
decreasing function g on a known bracket, so plain bisection is exact enough
and immune to the unbounded density derivatives some cost families have. It
reports whether the root is pinned at an end or interior, and it searches an
infinite upper end itself, so no caller needs a finite stand-in for it.
"""

from __future__ import annotations

import math
from typing import Callable

# Final bracket width: a couple of orders tighter than the 1e-10 the callers
# promise, so that fixed-point residuals also land within tolerance.
X_TOL = 1e-13

INTERIOR = "interior"
PINNED_LOW = "pinned_low"
PINNED_HIGH = "pinned_high"


def bisect_decreasing(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, str]:
    """Root of a strictly decreasing ``g`` on [lo, hi] and where it lies.

    Returns ``(lo, PINNED_LOW)`` when g(lo) <= 0, ``(hi, PINNED_HIGH)`` when
    g(hi) >= 0 at a finite ``hi``, and otherwise ``(x, INTERIOR)`` with x the
    midpoint of a bracket of width ``X_TOL``, or of two adjacent floats where
    ``X_TOL`` is below their spacing, so the loop always ends. With
    ``hi = +inf`` the finder tries lo + 1, lo + 2, lo + 4, ... until g turns
    negative and bisects that last step, so the root is never pinned high.
    """
    if not lo <= hi:
        raise ValueError("empty bracket")
    if g(lo) <= 0.0:
        return lo, PINNED_LOW
    if hi == math.inf:
        base, step = lo, 1.0
        while step < math.inf and g(base + step) > 0.0:
            lo, step = base + step, 2.0 * step
        hi = base + step
    elif g(hi) >= 0.0:
        return hi, PINNED_HIGH
    mid = 0.5 * (lo + hi)
    while hi - lo > X_TOL and lo < mid < hi:
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid, INTERIOR
