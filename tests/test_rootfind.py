import math

import pytest

from bountylab.rootfind import INTERIOR, PINNED_HIGH, PINNED_LOW, X_TOL, bisect_decreasing


@pytest.mark.parametrize(
    "root, hi, expected, where",
    [
        (-1.0, 10.0, 0.0, PINNED_LOW),
        (12.0, 10.0, 10.0, PINNED_HIGH),
        (3.7, 10.0, 3.7, INTERIOR),
        (37.5, math.inf, 37.5, INTERIOR),
        # over 1000 halvings from 1e300 down to X_TOL: no iteration cap cuts it
        (1.0, 1e300, 1.0, INTERIOR),
    ],
)
def test_bisect_decreasing_reports_where_the_root_lies(root, hi, expected, where):
    x, label = bisect_decreasing(lambda c: root - c, 0.0, hi)
    assert label == where
    assert abs(x - expected) <= X_TOL


def test_open_upper_end_is_searched_at_finite_points_only():
    seen = []

    def g(c):
        seen.append(c)
        return 1e6 - c

    x, label = bisect_decreasing(g, 0.0, math.inf)
    assert label == INTERIOR and abs(x - 1e6) <= 1e-9
    assert all(math.isfinite(c) for c in seen)
    # the outward search steps 1, 2, 4, ... past the start
    assert seen[1:4] == [1.0, 2.0, 4.0]


def test_empty_bracket_rejected():
    with pytest.raises(ValueError):
        bisect_decreasing(lambda c: -c, 1.0, 0.0)
