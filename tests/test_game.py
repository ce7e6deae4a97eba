import math

import mpmath
import numpy as np
import pytest

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    detect_prob,
    expected_benefit_psi,
    solve_equilibrium,
    win_prob_phi,
    win_prob_phi_oracle,
)
from conftest import random_game


# -- win probability ----------------------------------------------------------


def test_phi_single_agent_is_q(uniform01):
    for c_hat in (0.0, 0.3, 1.0):
        assert win_prob_phi(c_hat, 0.5, 1, uniform01) == 0.5


def test_phi_closed_form_value(uniform01):
    assert win_prob_phi(2 / 9, 0.5, 2, uniform01) == pytest.approx(17 / 36, abs=1e-15)


def test_phi_zero_q(uniform01):
    assert win_prob_phi(0.5, 0.0, 3, uniform01) == 0.0


def test_phi_bounds_and_monotonicity(uniform01):
    rng = np.random.default_rng(3)
    for _ in range(200):
        q = rng.uniform(0.05, 1.0)
        n = int(rng.integers(1, 12))
        c = np.sort(rng.uniform(0.01, 1.0, size=2))
        lo, hi = (win_prob_phi(x, q, n, uniform01) for x in c)
        assert 0.0 <= hi <= q + 1e-15
        if c[0] < c[1] and n > 1:
            assert lo > hi  # decreasing in the rivals' threshold
        q2 = min(1.0, q + 0.1)
        assert win_prob_phi(c[0], q2, n, uniform01) > lo - 1e-15


def test_phi_limit_at_zero_participation():
    dist = CostDistribution.uniform(1.0, 2.0)
    assert win_prob_phi(1.0, 0.7, 5, dist) == 0.7


@pytest.mark.parametrize("n", [10**6, 10**10])
@pytest.mark.parametrize("F", [1e-16, 0.99e-14, 1.01e-14, 1e-12])
@pytest.mark.parametrize("q", [1.0, 0.3])
def test_phi_near_zero_participation_matches_mpmath(uniform01, q, F, n):
    # On uniform(0, 1) F(c) = c, so the threshold sets the participation F.
    assert uniform01.cdf(F) == F
    with mpmath.workdps(60):
        F_mp = mpmath.mpf(F)
        exact = -mpmath.expm1(n * mpmath.log1p(-mpmath.mpf(q) * F_mp)) / (n * F_mp)
    assert win_prob_phi(F, q, n, uniform01) == pytest.approx(float(exact), rel=1e-15, abs=0.0)


def test_oracle_trivial_cases(uniform01):
    assert win_prob_phi_oracle(0.4, 0.6, 1, uniform01) == pytest.approx(0.6)
    assert win_prob_phi_oracle(1.0, 1.0, 2, uniform01) == pytest.approx(0.5)


def test_oracle_matches_closed_form(uniform01):
    assert win_prob_phi_oracle(0.4, 0.7, 3, uniform01) == pytest.approx(
        win_prob_phi(0.4, 0.7, 3, uniform01), abs=1e-12
    )


def test_oracle_equivalence_grid(uniform01):
    for n in range(1, 9):
        for q in np.arange(0.1, 1.01, 0.1):
            for c_hat in (0.0, 0.25, 0.5, 1.0):
                closed = win_prob_phi(c_hat, float(q), n, uniform01)
                oracle = win_prob_phi_oracle(c_hat, float(q), n, uniform01)
                assert abs(closed - oracle) <= 1e-12


def test_oracle_rejects_large_n(uniform01):
    with pytest.raises(ValueError):
        win_prob_phi_oracle(0.5, 0.5, 26, uniform01)


# -- detection ----------------------------------------------------------------


def test_detect_certain_and_impossible(uniform01):
    for n in (1, 2, 7):
        assert detect_prob(1.0, 1.0, n, uniform01) == 1.0
        assert detect_prob(0.7, 0.0, n, uniform01) == 0.0


def test_detect_closed_form_value(uniform01):
    assert detect_prob(4 / 33, 0.5, 2, uniform01) == pytest.approx(128 / 1089, abs=1e-15)


def test_detect_identity_with_phi():
    rng = np.random.default_rng(11)
    dists = [
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(-0.5, 1.5, 2.0),
        CostDistribution.exponential(0.2, 1.0),
    ]
    for _ in range(1000):
        dist = dists[rng.integers(len(dists))]
        c_hat = rng.uniform(dist.c_low, min(dist.upper_bound(), dist.c_low + 3))
        q = rng.uniform(0.0, 1.0)
        n = int(rng.integers(1, 50))
        F = dist.cdf(c_hat)
        lhs = detect_prob(c_hat, q, n, dist)
        rhs = n * F * win_prob_phi(c_hat, q, n, dist)
        assert abs(lhs - rhs) <= 1e-12


def test_detect_near_c_low_with_a_small_alpha():
    # F(1e-20) = 0.63 while t = 1e-20, so qF > 1/2 takes the sf branch, where
    # log t must come from t itself: 1 - (c_high - c)/span rounds to 1 there
    dist = CostDistribution.power(0.0, 1.0, 0.01)
    F = dist.cdf(1e-20)
    expected = -math.expm1(2 * math.log1p(-F))
    assert detect_prob(1e-20, 1.0, 2, dist) == pytest.approx(expected, rel=1e-15)
    assert win_prob_phi(1e-20, 1.0, 2, dist) == pytest.approx(expected / (2 * F), rel=1e-15)


# -- expected benefit ---------------------------------------------------------


def test_psi_zero_prizes(private_example):
    sched = PrizeSchedule.zero(1)
    assert expected_benefit_psi(0.3, sched, private_example) == 0.0


def test_psi_artificial_only(private_example):
    sched = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(0.25, 1.0),))
    assert expected_benefit_psi(2 / 9, sched, private_example) == pytest.approx(2 / 9, abs=1e-15)


def test_psi_constant_when_alone(uniform01):
    config = GameConfig(
        n=1, bugs=(OrganicBug(mu=0.4, q=0.6, w=1.0),), dist=uniform01, budget=1.0
    )
    sched = PrizeSchedule(v=(2.0,), artificial=(ArtificialBugDesign(0.5, 0.3),))
    want = 2.0 * 0.4 * 0.6 + 0.5 * 0.3
    for c_hat in (0.0, 0.4, 0.9):
        assert expected_benefit_psi(c_hat, sched, config) == pytest.approx(want)


def test_psi_rejects_length_mismatch(private_example):
    with pytest.raises(ValueError):
        expected_benefit_psi(0.1, PrizeSchedule.zero(2), private_example)


# -- equilibrium --------------------------------------------------------------


def test_equilibrium_pinned_low_with_zero_prizes():
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=1.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=1.0,
    )
    out = solve_equilibrium(PrizeSchedule.zero(1), config)
    assert out.boundary == "pinned_low"
    assert out.c_star == 1.0
    assert out.participation == 0.0
    assert out.expected_payout == 0.0


def test_equilibrium_interior_artificial(private_example):
    sched = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(0.25, 1.0),))
    out = solve_equilibrium(sched, private_example)
    assert out.boundary == "interior"
    assert out.c_star == pytest.approx(2 / 9, abs=1e-9)


def test_equilibrium_all_budget_on_organic(private_example):
    out = solve_equilibrium(PrizeSchedule.organic_only((0.5,)), private_example)
    assert out.c_star == pytest.approx(4 / 33, abs=1e-9)


def test_equilibrium_pinned_high(uniform01):
    config = GameConfig(
        n=2, bugs=(OrganicBug(mu=1.0, q=1.0, w=0.0),), dist=uniform01, budget=10.0
    )
    out = solve_equilibrium(PrizeSchedule.organic_only((10.0,)), config)
    assert out.boundary == "pinned_high"
    assert out.c_star == 1.0
    assert out.participation == 1.0


def test_equilibrium_fixed_point_residual_and_payout_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        config = random_game(rng)
        v = tuple(rng.uniform(0.0, config.budget / len(config.bugs), len(config.bugs)))
        art = (ArtificialBugDesign(float(rng.uniform(0, 0.5)), float(rng.uniform(0, 1))),)
        sched = PrizeSchedule(v=v, artificial=art)
        out = solve_equilibrium(sched, config)
        psi = expected_benefit_psi(out.c_star, sched, config)
        if out.boundary == "interior":
            assert abs(out.c_star - psi) <= 1e-10
            assert out.expected_payout == pytest.approx(
                config.n * out.participation * out.c_star, abs=1e-9
            )
        elif out.boundary == "pinned_low":
            assert psi <= out.c_star + 1e-12
            assert out.expected_payout == pytest.approx(
                config.n * out.participation * out.c_star, abs=1e-9
            )
        else:
            assert psi >= out.c_star - 1e-12


def test_equilibrium_infinite_support():
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(mu=0.8, q=0.6, w=1.0),),
        dist=CostDistribution.exponential(0.0, 1.0),
        budget=1.0,
    )
    out = solve_equilibrium(PrizeSchedule.organic_only((1.0,)), config)
    assert out.boundary == "interior"
    assert abs(out.c_star - expected_benefit_psi(out.c_star, PrizeSchedule.organic_only((1.0,)), config)) <= 1e-10


def test_equilibrium_on_a_wide_support_is_the_root():
    # Psi(c) = 1 - F(c)/2 with F(c) = c / 1e100, so c* is a hair under 1
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=1.0),),
        dist=CostDistribution.uniform(0.0, 1e100),
        budget=1.0,
    )
    sched = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(v_a=1.0, q_a=1.0),))
    out = solve_equilibrium(sched, config)
    assert out.boundary == "interior"
    assert abs(expected_benefit_psi(out.c_star, sched, config) - out.c_star) <= 1e-10


def test_equilibrium_past_two_to_the_1023_is_finite():
    # a lone searcher: Psi = v = 1.7e308 at every threshold, so c* = 1.7e308
    config = GameConfig(
        n=1,
        bugs=(OrganicBug(mu=1.0, q=1.0, w=1.0),),
        dist=CostDistribution.exponential(0.0, 1.0),
        budget=1.0,
    )
    out = solve_equilibrium(PrizeSchedule.organic_only((1.7e308,)), config)
    assert out.boundary == "interior"
    assert out.c_star == pytest.approx(1.7e308, rel=1e-15)


def test_equilibrium_whose_prize_total_overflows_is_rejected():
    # Psi = 1.7e308 + 1.7e308 = inf at every threshold: no float is the root
    config = GameConfig(
        n=1,
        bugs=(OrganicBug(mu=1.0, q=1.0, w=1.0),) * 2,
        dist=CostDistribution.exponential(0.0, 1.0),
        budget=1.0,
    )
    with pytest.raises(ValueError, match="largest float"):
        solve_equilibrium(PrizeSchedule.organic_only((1.7e308, 1.7e308)), config)


@pytest.mark.parametrize("v", [1e-13, 1e-6, 1.0])
def test_equilibrium_is_exact_at_every_prize_scale(uniform01, v):
    # n = 2, uniform(0, 1): Psi(c) = v q (1 - q c / 2), so c* = v q / (1 + v q^2 / 2)
    config = GameConfig(n=2, bugs=(OrganicBug(mu=1.0, q=0.5, w=1.0),), dist=uniform01, budget=1.0)
    out = solve_equilibrium(PrizeSchedule.organic_only((v,)), config)
    assert out.boundary == "interior"
    assert abs(out.c_star / (v * 0.5 / (1.0 + v * 0.25 / 2.0)) - 1.0) <= 1e-15


def test_equilibrium_monotone_comparative_statics(uniform01):
    # c* must not fall when any prize, existence, or find probability rises
    rng = np.random.default_rng(17)
    for _ in range(10):
        config = random_game(rng)
        base_v = tuple(rng.uniform(0.05, 0.6, len(config.bugs)))
        base_art = ArtificialBugDesign(0.2, 0.5)

        def c_star(v=base_v, art=base_art, bugs=config.bugs):
            cfg = GameConfig(n=config.n, bugs=bugs, dist=config.dist, budget=config.budget)
            return solve_equilibrium(PrizeSchedule(v=v, artificial=(art,)), cfg).c_star

        grid = np.linspace(0.0, 1.0, 10)
        for param in ("v", "mu", "q", "v_a", "q_a"):
            prev = -np.inf
            for t in grid:
                if param == "v":
                    value = c_star(v=(base_v[0] + t,) + base_v[1:])
                elif param == "mu":
                    b0 = config.bugs[0]
                    mu = min(1.0, 0.05 + 0.95 * t)
                    value = c_star(bugs=(OrganicBug(mu, b0.q, b0.w),) + config.bugs[1:])
                elif param == "q":
                    b0 = config.bugs[0]
                    q = min(1.0, 0.05 + 0.95 * t)
                    value = c_star(bugs=(OrganicBug(b0.mu, q, b0.w),) + config.bugs[1:])
                elif param == "v_a":
                    value = c_star(art=ArtificialBugDesign(t, 0.5))
                else:
                    value = c_star(art=ArtificialBugDesign(0.2, t))
                assert value >= prev - 1e-9
                prev = value


def test_game_config_validation(uniform01):
    with pytest.raises(ValueError):
        GameConfig(n=0, bugs=(OrganicBug(0.5, 0.5, 1.0),), dist=uniform01, budget=1.0)
    with pytest.raises(ValueError):
        GameConfig(n=2, bugs=(), dist=uniform01, budget=1.0)
    with pytest.raises(ValueError):
        GameConfig(n=2, bugs=(OrganicBug(0.5, 0.5, 1.0),), dist=uniform01, budget=0.0)
    with pytest.raises(ValueError):
        OrganicBug(mu=0.0, q=0.5, w=1.0)
    with pytest.raises(ValueError):
        OrganicBug(mu=0.5, q=1.5, w=1.0)
    with pytest.raises(ValueError):
        ArtificialBugDesign(v_a=-0.1, q_a=0.5)
    with pytest.raises(ValueError):
        PrizeSchedule(v=(-1.0,))


def test_bool_agent_count_rejected(uniform01):
    # bool is an int subclass: True would otherwise pass as n = 1
    with pytest.raises(ValueError, match="integer"):
        GameConfig(n=True, bugs=(OrganicBug(0.5, 0.5, 1.0),), dist=uniform01, budget=1.0)
    with pytest.raises(ValueError, match="integer"):
        win_prob_phi(0.5, 0.5, True, uniform01)


@pytest.mark.parametrize(
    "build",
    [
        lambda v: OrganicBug(mu=0.5, q=0.5, w=v),
        lambda v: ArtificialBugDesign(v_a=v, q_a=0.5),
        lambda v: GameConfig(
            n=2, bugs=(OrganicBug(0.5, 0.5, 1.0),), dist=CostDistribution.uniform(0, 1), budget=v
        ),
    ],
    ids=["w", "v_a", "budget"],
)
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_parameter_rejected(build, value):
    with pytest.raises(ValueError, match="finite"):
        build(value)
