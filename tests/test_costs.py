import math

import numpy as np
import pytest

from bountylab import CostDistribution


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
        mass = np.trapezoid(dist.pdf(grid), grid)
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
            dist.hazard_ratio(grid), dist.cdf(grid) / dist.pdf(grid), rtol=1e-9
        )


def test_grid_properties_all_families():
    for dist in (
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(-0.3, 2.0, 0.6),
        CostDistribution.power(0.0, 1.0, 4.0),
        CostDistribution.exponential(0.0, 3.0),
    ):
        grid = np.linspace(dist.c_low, dist.upper_bound(), 1024)
        cdf = dist.cdf(grid)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        assert np.all(dist.pdf(grid[1:]) >= 0.0)
        h = dist.hazard_ratio(grid)
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


def test_quantile_cdf_roundtrip():
    rng = np.random.default_rng(7)
    for dist in (
        CostDistribution.uniform(-1.0, 2.0),
        CostDistribution.power(0.0, 1.0, 0.5),
        CostDistribution.power(-0.5, 3.0, 2.0),
        CostDistribution.exponential(0.25, 1.5),
    ):
        c = dist.quantile(rng.uniform(1e-6, 1.0 - 1e-6, size=500))
        np.testing.assert_allclose(dist.quantile(dist.cdf(c)), c, atol=1e-10)
        u = rng.uniform(1e-6, 1.0 - 1e-6, size=500)
        np.testing.assert_allclose(dist.cdf(dist.quantile(u)), u, atol=1e-10)


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
        fx = dist.cdf(x)
        i = np.arange(1, n + 1)
        ks = max(np.max(i / n - fx), np.max(fx - (i - 1) / n))
        assert ks < 0.01


def test_exponential_effective_upper_bound():
    dist = CostDistribution.exponential(1.0, 2.0)
    ub = dist.upper_bound()
    assert math.isfinite(ub)
    assert dist.cdf(ub) == pytest.approx(1.0 - 1e-12, abs=1e-13)


def test_json_roundtrip():
    for dist in (
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(0.5, 2.0, 3.0),
        CostDistribution.exponential(1.0, 0.7),
    ):
        assert CostDistribution.from_json(dist.to_json()) == dist
    with pytest.raises(ValueError):
        CostDistribution.from_json({"kind": "exponential", "c_low": 0.0, "c_high": 2.0})


@pytest.mark.parametrize(
    "build",
    [lambda v: CostDistribution.power(0.0, 1.0, v), lambda v: CostDistribution.exponential(0.0, v)],
    ids=["alpha", "rate"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_shape_rejected(build, value):
    with pytest.raises(ValueError):
        build(value)
