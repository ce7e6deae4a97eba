"""Bracketing root finder for strictly decreasing scalar functions.

Every fixed-point equation in the package reduces to a root of a strictly
decreasing function g on a known bracket. The finder is Brent-Dekker (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 4): inverse
quadratic or secant steps while they shrink fast enough, bisection when they
do not, so it needs no derivative and keeps a sign-changing bracket
throughout. Its stop is relative to the root, so a game whose costs and prizes
are all scaled by s has its thresholds scaled by s to the last few ulps,
whatever s is. It reports whether the root is pinned at an end or interior,
and it searches an infinite upper end itself, so no caller needs a finite
stand-in for it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

# The finder stops once the bracket is at most REL_TOL * |x| wide, about 4
# ulps of x, or is two adjacent floats; evaluation noise in g is of that order.
REL_TOL = 4.0 * 2.0**-52

INTERIOR = "interior"
PINNED_LOW = "pinned_low"
PINNED_HIGH = "pinned_high"

_MAX = sys.float_info.max  # the open-end search's last upper end


def bisect_decreasing(g: Callable[[float], float], lo: float, hi: float) -> tuple[float, str]:
    """Root of a strictly decreasing ``g`` on [lo, hi] and where it lies.

    Returns ``(lo, PINNED_LOW)`` when g(lo) <= 0, ``(hi, PINNED_HIGH)`` when
    g(hi) >= 0 at a finite ``hi``, and otherwise ``(x, INTERIOR)`` with x the
    end of smaller |g| of a bracket at most ``REL_TOL * |x|`` wide, or of two
    adjacent floats, or a point where g is exactly 0. The bracket shrinks at
    every step, so the loop ends without an iteration cap. With ``hi = +inf``
    the finder tries lo + 1, lo + 2, lo + 4, ... until g stops being positive
    and solves on that last step, so the root is never pinned high. The last
    try is the largest float; if g is still positive there, the root's scale
    overflows and the finder raises ValueError instead of returning inf.
    """
    if not lo <= hi:
        raise ValueError("empty bracket")
    g_lo = g(lo)
    if g_lo <= 0.0:
        return lo, PINNED_LOW
    if hi == math.inf:
        base, step = lo, 1.0
        while (g_hi := g(hi := min(base + step, _MAX))) > 0.0:
            if hi == _MAX:
                raise ValueError("no root below the largest float: the scale overflows")
            lo, g_lo, step = hi, g_hi, 2.0 * step
    else:
        g_hi = g(hi)
        if g_hi >= 0.0:
            return hi, PINNED_HIGH
    return _brent(g, lo, g_lo, hi, g_hi), INTERIOR


def _brent(g: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> float:
    """Brent-Dekker on a bracket with fa > 0 >= fb.

    b is the best estimate so far, c the end of the bracket opposite b, and a
    the previous b. A step shorter than ``tol`` is stretched to ``tol``, so
    every evaluation moves b by at least about 2 ulps. Brent's own test falls
    back to bisection when interpolation steps stop shrinking; on top of it,
    a bracket that has not halved in two evaluations is bisected, so the
    finder never needs more than three evaluations per halving, where plain
    Brent-Dekker can need O(halvings^2) in all.
    """
    c, fc = a, fa
    d = e = b - a
    halved_at, stalled = abs(b - a), 0
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * REL_TOL * abs(b) + math.ulp(0.0)
        m = 0.5 * (c - b)
        if fb == 0.0 or abs(m) <= tol or not min(b, c) < b + m < max(b, c):
            return b
        if abs(c - b) <= 0.5 * halved_at:
            halved_at, stalled = abs(c - b), 0
        else:
            stalled += 1
        if stalled > 1 or abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s  # secant
            else:
                q, r = fa / fc, fb / fc  # inverse quadratic interpolation
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # accept the step only inside the bracket and, once two steps in,
            # at most half the step before last; bisect otherwise
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = g(b)
