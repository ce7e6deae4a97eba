import math

import mpmath
import numpy as np
import pytest

from bountylab import CostDistribution


def _each(f, xs):
    """f at each point of xs, as a float array."""
    return np.array([f(float(x)) for x in xs])


def test_cdf_closed_forms(uniform01):
    assert uniform01.cdf(0.5) == 0.5
    assert CostDistribution.power(0.0, 1.0, 2.0).cdf(0.5) == 0.25
    assert CostDistribution.uniform(1.0, 2.0).cdf(1.0) == 0.0


def test_cdf_clamps(uniform01):
    assert uniform01.cdf(-1.0) == 0.0
    assert uniform01.cdf(2.0) == 1.0


def test_pdf_closed_forms(uniform01):
    assert uniform01.pdf(0.3) == 1.0
    assert CostDistribution.uniform(1.0, 2.0).pdf(1.5) == 1.0
    assert CostDistribution.power(0.0, 1.0, 2.0).pdf(0.5) == pytest.approx(1.0, abs=1e-15)
    assert uniform01.pdf(1.5) == 0.0
    assert uniform01.pdf(-0.1) == 0.0


def test_pdf_integrates_to_one():
    for dist in (
        CostDistribution.uniform(-0.5, 1.5),
        CostDistribution.power(0.0, 2.0, 2.5),
        CostDistribution.power(0.0, 1.0, 0.7),
        CostDistribution.exponential(0.5, 2.0),
    ):
        grid = np.linspace(dist.c_low + 1e-9, dist.upper_bound(), 200001)
        mass = np.trapezoid(_each(dist.pdf, grid), grid)
        assert mass == pytest.approx(1.0, abs=2e-3)


def test_hazard_ratio_values(uniform01):
    assert uniform01.hazard_ratio(0.4) == pytest.approx(0.4, abs=1e-15)
    assert CostDistribution.power(0.0, 1.0, 2.0).hazard_ratio(0.5) == pytest.approx(0.25)
    assert CostDistribution.uniform(1.0, 2.0).hazard_ratio(1.5) == pytest.approx(0.5)
    assert uniform01.hazard_ratio(0.0) == 0.0
    assert uniform01.hazard_ratio(-3.0) == 0.0


def test_hazard_matches_cdf_over_pdf():
    for dist in (
        CostDistribution.uniform(-0.5, 1.5),
        CostDistribution.power(0.2, 1.7, 2.5),
        CostDistribution.exponential(1.0, 0.5),
    ):
        grid = np.linspace(dist.c_low + 1e-6, dist.upper_bound() * 0.9, 101)
        np.testing.assert_allclose(
            _each(dist.hazard_ratio, grid),
            _each(dist.cdf, grid) / _each(dist.pdf, grid),
            rtol=1e-9,
        )


def test_grid_properties_all_families():
    for dist in (
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(-0.3, 2.0, 0.6),
        CostDistribution.power(0.0, 1.0, 4.0),
        CostDistribution.exponential(0.0, 3.0),
    ):
        grid = np.linspace(dist.c_low, dist.upper_bound(), 1024)
        cdf = _each(dist.cdf, grid)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(_each(dist.pdf, grid[1:]) >= 0.0)
        h = _each(dist.hazard_ratio, grid)
        assert np.all(np.diff(h) >= -1e-12)


def test_quantile_examples(uniform01):
    assert uniform01.quantile(0.25) == 0.25
    assert CostDistribution.uniform(1.0, 2.0).quantile(0.0) == 1.0
    assert CostDistribution.power(0.0, 1.0, 2.0).quantile(0.25) == pytest.approx(0.5)


def test_quantile_rejects_bad_levels(uniform01):
    with pytest.raises(ValueError):
        uniform01.quantile(-0.1)
    with pytest.raises(ValueError):
        uniform01.quantile(1.5)


def test_values_where_math_raises():
    # the limits, not ZeroDivisionError, OverflowError or a domain error
    assert CostDistribution.power(0.0, 1.0, 0.5).pdf(0.0) == math.inf
    assert CostDistribution.power(0.0, 1.0, 0.01).pdf(1e-320) == math.inf
    assert CostDistribution.exponential(0.0, 1.0).quantile(1.0) == math.inf
    assert CostDistribution.exponential(0.0, 1.0).hazard_ratio(1000.0) == math.inf
    with pytest.raises(ValueError):
        CostDistribution.uniform(0.0, 1.0).quantile(math.nan)


def test_quantile_cdf_roundtrip():
    rng = np.random.default_rng(7)
    for dist in (
        CostDistribution.uniform(-1.0, 2.0),
        CostDistribution.power(0.0, 1.0, 0.5),
        CostDistribution.power(-0.5, 3.0, 2.0),
        CostDistribution.exponential(0.25, 1.5),
    ):
        c = _each(dist.quantile, rng.uniform(1e-6, 1.0 - 1e-6, size=500))
        np.testing.assert_allclose(_each(dist.quantile, _each(dist.cdf, c)), c, atol=1e-10)
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
        np.testing.assert_allclose(_each(dist.cdf, _each(dist.quantile, u)), u, atol=1e-10)


def test_validate_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CostDistribution.uniform(1.0, 1.0)
    with pytest.raises(ValueError):
        CostDistribution.uniform(-2.0, -1.0)  # c_high must be positive
    with pytest.raises(ValueError):
        CostDistribution.power(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        CostDistribution.power(0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        CostDistribution.exponential(0.0, 0.0)
    with pytest.raises(ValueError):
        CostDistribution("weibull", 0.0, 1.0)


def test_sample_empty_and_deterministic(uniform01):
    assert uniform01.sample(1, 0).shape == (0,)
    a = uniform01.sample(42, 1000)
    b = uniform01.sample(42, 1000)
    np.testing.assert_array_equal(a, b)
    c = uniform01.sample(43, 1000)
    assert not np.array_equal(a, c)


def test_sample_matches_cdf_ks():
    # one-sample Kolmogorov-Smirnov statistic against the closed-form CDF
    for dist in (
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(0.0, 2.0, 2.0),
        CostDistribution.exponential(1.0, 2.0),
    ):
        x = np.sort(dist.sample(123, 10**5))
        n = len(x)
        fx = _each(dist.cdf, x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - fx), np.max(fx - (i - 1) / n))
        assert ks < 0.01


SF_LAWS = [
    CostDistribution.uniform(-0.5, 1.5),
    CostDistribution.power(0.5, 2.0, 3.0),
    CostDistribution.power(0.25, 1.75, 7.3),
    CostDistribution.power(0.0, 1.0, 0.5),
    CostDistribution.power(0.0, 1.0, 0.01),
    CostDistribution.exponential(1.0, 2.0),
]


def _sf_grid(dist):
    """Points with full mantissas: geometric offsets from both ends of the
    support (the far end of an exponential is where sf = 1e-35), seeded
    uniform draws in between, and one point past each end."""
    top = dist.c_high if math.isfinite(dist.c_high) else dist.c_low + 40.0 / dist.rate
    span = top - dist.c_low
    offsets = span * np.geomspace(1e-20, 0.5, 300)
    inner = np.random.default_rng(5).uniform(dist.c_low, top, 300)
    ends = [dist.c_low - 0.5, top + 0.5]
    return np.concatenate([dist.c_low + offsets, top - offsets, inner, ends])


@pytest.mark.parametrize("dist", SF_LAWS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_sf_complements_cdf(dist):
    # fsum gives the exact error of each (cdf, sf) pair. Each side rounds
    # t = (c - c_low) / span once, and the power cdf's t**alpha carries alpha
    # times that rounding, hence the (1 + alpha) ulps.
    grid = _sf_grid(dist)
    pairs = zip(_each(dist.cdf, grid), _each(dist.sf, grid))
    err = max(abs(math.fsum((F, S, -1.0))) for F, S in pairs)
    assert err <= (1.0 + dist.alpha) * np.finfo(float).eps
    assert dist.sf(dist.c_low - 1.0) == 1.0
    if math.isfinite(dist.c_high):
        assert dist.sf(dist.c_high + 1.0) == 0.0


@pytest.mark.parametrize("dist", SF_LAWS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_sf_matches_the_reference_on_the_grid(dist):
    grid = _sf_grid(dist)
    for c, S in zip(grid, _each(dist.sf, grid)):
        ref = _sf_reference(dist, c)
        assert abs(S - ref) <= 1e-15 * ref, c


def _sf_reference(dist, c):
    """1 - F(c) at 50 digits, from the family formulas in the module docstring."""
    with mpmath.workdps(50):
        c, lo = mpmath.mpf(c), mpmath.mpf(dist.c_low)
        if dist.kind == "exponential":
            return mpmath.exp(-mpmath.mpf(dist.rate) * max(c - lo, 0))
        t = min(max((c - lo) / (mpmath.mpf(dist.c_high) - lo), 0), 1)
        return 1 - t ** mpmath.mpf(dist.alpha)


@pytest.mark.parametrize("dist", SF_LAWS, ids=lambda d: f"{d.kind}-{d.alpha}")
def test_cdf_and_hazard_match_the_reference_on_the_grid(dist):
    # cdf carries the (1 + alpha) ulps of t**alpha, as in test_sf_complements_cdf
    eps = np.finfo(float).eps
    for c in _sf_grid(dist):
        F_ref, H_ref = _cdf_and_hazard_reference(dist, c)
        assert abs(dist.cdf(float(c)) - F_ref) <= (1.0 + dist.alpha) * eps * F_ref, c
        assert abs(dist.hazard_ratio(float(c)) - H_ref) <= 1e-15 * H_ref, c


def _cdf_and_hazard_reference(dist, c):
    """F(c) and F(c)/f(c) at 50 digits. F is taken directly, not as 1 - sf:
    at 50 digits 1 - sf would lose every digit of a t**3 of 1e-60."""
    with mpmath.workdps(50):
        c, lo = mpmath.mpf(c), mpmath.mpf(dist.c_low)
        if dist.kind == "exponential":
            rd = mpmath.mpf(dist.rate) * max(c - lo, 0)
            return -mpmath.expm1(-rd), mpmath.expm1(rd) / mpmath.mpf(dist.rate)
        span = mpmath.mpf(dist.c_high) - lo
        d = min(max(c - lo, 0), span)
        alpha = mpmath.mpf(dist.alpha)
        return (d / span) ** alpha, d / alpha


@pytest.mark.parametrize(
    "dist, c",
    [
        (CostDistribution.exponential(0.0, 1.0), 40.0),
        (CostDistribution.exponential(1.0, 2.0), 19.5),
        (CostDistribution.power(0.0, 1.0, 3.0), 1.0 - 1e-12),
        (CostDistribution.power(0.5, 2.0, 0.5), 2.0 - 1e-9),
    ],
)
def test_sf_keeps_its_digits_in_the_tail(dist, c):
    ref = _sf_reference(dist, c)
    assert abs(dist.sf(c) / ref - 1) <= 1e-15
    # where 1 - F is 0 or keeps only a few of its digits
    assert abs((1.0 - dist.cdf(c)) / ref - 1) > 1e-13


def test_exponential_effective_upper_bound():
    dist = CostDistribution.exponential(1.0, 2.0)
    ub = dist.upper_bound()
    assert math.isfinite(ub)
    assert dist.cdf(ub) == pytest.approx(1.0 - 1e-12, abs=1e-13)


@pytest.mark.parametrize(
    "build",
    [lambda v: CostDistribution.power(0.0, 1.0, v), lambda v: CostDistribution.exponential(0.0, v)],
    ids=["alpha", "rate"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_shape_rejected(build, value):
    with pytest.raises(ValueError):
        build(value)
