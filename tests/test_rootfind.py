import math
import sys

import pytest

from bountylab.rootfind import INTERIOR, PINNED_HIGH, PINNED_LOW, REL_TOL, bisect_decreasing


def _within_stop(x, root):
    """x lies within one final bracket of the root: REL_TOL relative, or two
    steps of the smallest subnormal for a root at 0."""
    return abs(x - root) <= REL_TOL * max(abs(x), abs(root)) + 2 * math.ulp(0.0)


def _counted(g):
    calls = []

    def counted(c):
        calls.append(c)
        return g(c)

    return counted, calls


def _bisection_evaluations(g, lo, hi):
    """Evaluations plain bisection makes on [lo, hi] to the finder's stop:
    the two ends, then one per halving."""
    evaluations = 2
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= REL_TOL * max(abs(lo), abs(hi)) + 2 * math.ulp(0.0) or not lo < mid < hi:
            return evaluations
        evaluations += 1
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize(
    "root, hi, expected, where",
    [
        (-1.0, 10.0, 0.0, PINNED_LOW),
        (12.0, 10.0, 10.0, PINNED_HIGH),
        (3.7, 10.0, 3.7, INTERIOR),
        (37.5, math.inf, 37.5, INTERIOR),
        (1.0, 1e300, 1.0, INTERIOR),
    ],
)
def test_bisect_decreasing_reports_where_the_root_lies(root, hi, expected, where):
    x, label = bisect_decreasing(lambda c: root - c, 0.0, hi)
    assert label == where
    assert _within_stop(x, expected)


def _step(c):
    return 1.0 if c < 0.3 else -1.0


def _lopsided_quintic(c):
    return 1e5 * (0.3 - c) ** 5 if c < 0.3 else -((c - 0.3) ** 5)


def _sqrt_gap(root):
    return lambda c: math.sqrt(root) - math.sqrt(c)


@pytest.mark.parametrize(
    "g, lo, hi, root",
    [
        pytest.param(_step, 0.0, 1.0, 0.3, id="step"),
        # over 1000 halvings from 1e300: no iteration cap cuts the search short
        pytest.param(_step, 0.0, 1e300, 0.3, id="step_wide"),
        pytest.param(lambda c: -((c - 0.3) ** 3), 0.0, 1.0, 0.3, id="cube"),
        pytest.param(lambda c: -((c - 0.3) ** 3), 0.0, 1e6, 0.3, id="cube_wide"),
        # Brent-Dekker without the halving guard takes 3.3 bisections' worth
        pytest.param(_lopsided_quintic, 0.0, 1e3, 0.3, id="lopsided_quintic"),
        pytest.param(lambda c: -c, -1.0, 1.0, 0.0, id="zero"),
        pytest.param(lambda c: 1.0 if c < 0.0 else -1.0, -1.0, 1.0, 0.0, id="zero_step"),
        pytest.param(lambda c: 1.0 - c, 0.0, 1e300, 1.0, id="linear_wide"),
        pytest.param(_sqrt_gap(3e-300), 0.0, 1.0, 3e-300, id="tiny_root"),
        pytest.param(_sqrt_gap(3e300), 0.0, 1e308, 3e300, id="huge_root"),
    ],
)
def test_adversarial_roots_to_the_stop_within_three_bisections(g, lo, hi, root):
    counted, calls = _counted(g)
    x, label = bisect_decreasing(counted, lo, hi)
    assert label == INTERIOR
    assert _within_stop(x, root)
    assert len(calls) <= 3 * _bisection_evaluations(g, lo, hi)


def test_ends_are_evaluated_once():
    counted, calls = _counted(lambda c: 0.25 - c * c)
    x, _ = bisect_decreasing(counted, 0.0, 1.0)
    assert _within_stop(x, 0.5)
    assert calls.count(0.0) == 1 and calls.count(1.0) == 1


def test_smooth_root_is_superlinear():
    """A smooth root takes a handful of evaluations where bisection takes 50+."""
    g = lambda c: math.exp(-c) - c  # noqa: E731
    counted, calls = _counted(g)
    x, _ = bisect_decreasing(counted, 0.0, 1.0)
    assert _within_stop(x, 0.5671432904097838)
    assert len(calls) <= 10 < 50 <= _bisection_evaluations(g, 0.0, 1.0)


def test_open_upper_end_is_searched_at_finite_points_only():
    counted, seen = _counted(lambda c: 1e6 - c)
    x, label = bisect_decreasing(counted, 0.0, math.inf)
    assert label == INTERIOR and _within_stop(x, 1e6)
    assert all(math.isfinite(c) for c in seen)
    # the outward search steps 1, 2, 4, ... past the start
    assert seen[1:4] == [1.0, 2.0, 4.0]


def test_open_upper_end_tries_the_largest_float_last():
    # the doublings jump from 2^1023 (8.99e307) to inf; the root lies between
    x, label = bisect_decreasing(lambda c: 1.7e308 - c, 0.0, math.inf)
    assert label == INTERIOR and math.isfinite(x) and _within_stop(x, 1.7e308)


def test_open_upper_end_without_a_float_root_raises():
    counted, seen = _counted(lambda c: math.inf)
    with pytest.raises(ValueError, match="largest float"):
        bisect_decreasing(counted, 0.0, math.inf)
    assert seen[-1] == sys.float_info.max


def test_empty_bracket_rejected():
    with pytest.raises(ValueError):
        bisect_decreasing(lambda c: -c, 1.0, 0.0)
