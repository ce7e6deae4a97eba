import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    check_equilibrium,
    expected_benefit_psi,
    simulate,
    solve_equilibrium,
    SimConfig,
)
from conftest import random_game

CANONICAL = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(0.25, 1.0),))


def test_zero_q_never_detects(uniform01):
    config = GameConfig(
        n=3, bugs=(OrganicBug(mu=0.5, q=1e-12, w=1.0),), dist=uniform01, budget=1.0
    )
    sched = PrizeSchedule(v=(1.0,), artificial=(ArtificialBugDesign(0.5, 0.0),))
    report = simulate(sched, config, SimConfig(trials=20_000, seed=9, threshold=0.5))
    assert report.detect_unconditional[0].estimate == 0.0
    assert report.detect_artificial[0].estimate == 0.0
    assert report.payout.estimate == 0.0


def test_simulation_matches_closed_forms(private_example):
    sim = SimConfig(trials=10**6, seed=20240809, threshold=2 / 9)
    report = simulate(CANONICAL, private_example, sim)
    for stat in report.rows():
        assert abs(stat.z_score) <= 4.0, stat
    # spot values: unconditional detection mu * P and utility W(2/9)
    assert report.detect_unconditional[0].closed_form == pytest.approx(17 / 162)
    assert report.utility.closed_form == pytest.approx(1 / 9)
    assert report.payout.closed_form == pytest.approx(8 / 81)


def test_simulation_is_deterministic(private_example):
    sim = SimConfig(trials=50_000, seed=7, threshold=2 / 9)
    a = simulate(CANONICAL, private_example, sim)
    b = simulate(CANONICAL, private_example, sim)
    assert a == b


def test_simulation_seed_independence(private_example):
    t = 200_000
    a = simulate(CANONICAL, private_example, SimConfig(t, 1, 2 / 9))
    b = simulate(CANONICAL, private_example, SimConfig(t, 2, 2 / 9))
    for x, y in zip(a.rows(), b.rows()):
        combined = np.hypot(x.std_error, y.std_error)
        assert abs(x.estimate - y.estimate) <= 6.0 * combined, (x, y)


def test_simulation_win_frequency_matches_oracle():
    rng = np.random.default_rng(51)
    for _ in range(20):
        config = random_game(rng)
        config = GameConfig(
            n=min(config.n, 8), bugs=config.bugs, dist=config.dist, budget=config.budget
        )
        v = tuple(rng.uniform(0.0, 0.5, len(config.bugs)))
        sched = PrizeSchedule(v=v, artificial=(ArtificialBugDesign(0.3, float(rng.uniform(0.1, 1))),))
        lo = max(config.dist.c_low, 0.0)
        threshold = float(rng.uniform(lo + 0.1, config.dist.upper_bound()))
        report = simulate(sched, config, SimConfig(trials=10**6, seed=int(rng.integers(2**32)), threshold=threshold))
        for stat in report.win_organic + report.win_artificial:
            assert abs(stat.z_score) <= 4.0, stat


def test_payout_identity_at_equilibrium(private_example):
    out = solve_equilibrium(CANONICAL, private_example)
    sim = SimConfig(trials=10**6, seed=99, threshold=out.c_star)
    report = simulate(CANONICAL, private_example, sim)
    identity = private_example.n * out.participation * out.c_star
    assert abs(report.payout.estimate - identity) <= 4.0 * report.payout.std_error


def test_check_equilibrium_gap_small(private_example):
    out = solve_equilibrium(CANONICAL, private_example)
    gap = check_equilibrium(CANONICAL, private_example, SimConfig(10**6, 12345, out.c_star))
    assert gap.boundary == "interior"
    assert gap.gap <= 4.0 * gap.std_error


def test_check_equilibrium_pinned_reports_boundary():
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 1.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=1.0,
    )
    sched = PrizeSchedule.zero(1)
    out = solve_equilibrium(sched, config)
    gap = check_equilibrium(sched, config, SimConfig(10_000, 3, out.c_star))
    assert gap.boundary == "pinned_low"
    assert gap.estimate == 0.0
    assert gap.gap == pytest.approx(out.c_star)


def test_check_equilibrium_single_agent(uniform01):
    # alone, a searcher's benefit is v mu q regardless of the threshold
    config = GameConfig(
        n=1, bugs=(OrganicBug(mu=0.5, q=0.5, w=1.0),), dist=uniform01, budget=1.0
    )
    sched = PrizeSchedule.organic_only((1.0,))
    out = solve_equilibrium(sched, config)
    assert out.c_star == pytest.approx(0.25, abs=1e-10)
    gap = check_equilibrium(sched, config, SimConfig(400_000, 21, out.c_star))
    assert gap.gap <= 4.0 * gap.std_error


def test_marginal_benefit_estimates_psi(private_example):
    sched = PrizeSchedule(v=(0.4,), artificial=(ArtificialBugDesign(0.1, 0.8),))
    threshold = 0.3
    report = simulate(sched, private_example, SimConfig(10**6, 31, threshold))
    stat = report.marginal_benefit
    assert stat.closed_form == pytest.approx(
        expected_benefit_psi(threshold, sched, private_example)
    )
    assert abs(stat.z_score) <= 4.0


def test_simulation_rejects_bad_inputs(private_example):
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=1, threshold=0.5)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=-1, threshold=0.5)
    with pytest.raises(ValueError):
        simulate(CANONICAL, private_example, SimConfig(10, 1, threshold=5.0))
    with pytest.raises(ValueError):
        simulate(PrizeSchedule.zero(2), private_example, SimConfig(10, 1, 0.5))
    for trials, seed, threshold in [
        (True, 1, 0.5),
        (10, False, 0.5),
        (10, 1, math.nan),
        (10, 1, math.inf),
        (10, 1, -math.inf),
    ]:
        with pytest.raises(ValueError):
            SimConfig(trials, seed, threshold)


def test_binomial_rows_where_every_trial_agrees(uniform01):
    # At n = 30 and threshold 0.9 the bug is found in all 4096 trials while
    # its closed form is a hair under 1: the error comes from the closed form.
    config = GameConfig(n=30, bugs=(OrganicBug(1.0, 0.5, 1.0),), dist=uniform01, budget=1.0)
    report = simulate(PrizeSchedule.organic_only((0.5,)), config, SimConfig(4096, 3, 0.9))
    for stat in (report.detect_unconditional[0], report.detect_conditional[0]):
        p0 = stat.closed_form
        assert stat.estimate == 1.0 and p0 < 1.0
        assert stat.std_error == pytest.approx(math.sqrt(p0 * (1.0 - p0) / 4096))
        assert math.isfinite(stat.z_score)
    # a certain find at a certain closed form reads z = 0
    certain = GameConfig(n=2, bugs=(OrganicBug(1.0, 1.0, 1.0),), dist=uniform01, budget=1.0)
    stat = simulate(PrizeSchedule.organic_only((0.5,)), certain, SimConfig(64, 1, 1.0))
    assert stat.detect_conditional[0].z_score == 0.0
    # no observations: the reference agent never searches at threshold c_low
    idle = simulate(PrizeSchedule.organic_only((0.5,)), config, SimConfig(64, 1, 0.0))
    assert math.isnan(idle.win_organic[0].estimate) and math.isnan(idle.win_organic[0].std_error)


def test_check_equilibrium_rejects_bad_inputs(private_example):
    # the private example's support is [0, 1]
    for threshold in (-0.5, 1.5):
        with pytest.raises(ValueError):
            check_equilibrium(CANONICAL, private_example, SimConfig(10, 1, threshold))
    with pytest.raises(ValueError):
        check_equilibrium(PrizeSchedule.zero(2), private_example, SimConfig(10, 1, 0.5))


def test_memory_does_not_grow_with_n():
    """At n = 10^6 one (65536, n) float array per chunk would take 5e14
    bytes; the kernel draws counts, so its peak matches the n = 2 run."""
    bugs = (OrganicBug(0.5, 0.5, 2.0),)
    sched = PrizeSchedule(v=(1.0,), artificial=(ArtificialBugDesign(0.5, 1.0),))
    peaks = []
    for n in (2, 10**6):
        config = GameConfig(n=n, bugs=bugs, dist=CostDistribution.uniform(0.0, 1.0), budget=2.0)
        out = solve_equilibrium(sched, config)
        tracemalloc.start()
        try:
            # n F = 2 searchers on average keeps every detection row away from 0 and 1
            report = simulate(sched, config, SimConfig(1 << 16, 11, min(2.0 / n, 0.5)))
            gap = check_equilibrium(sched, config, SimConfig(1 << 16, 12, out.c_star))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # At n = 10^6 one agent wins about 2^16 mu / n < 0.1 prizes in the
        # whole run, so the agent-0 rows (win_*, marginal_benefit) carry no data.
        rows = report.detect_unconditional + report.detect_conditional + report.detect_artificial
        for stat in rows + (report.payout, report.utility):
            assert abs(stat.z_score) <= 4.0, (n, stat)
        assert gap.gap <= 4.0 * gap.std_error, (n, gap)
    assert peaks[1] <= 1.5 * peaks[0], peaks


def _payout_law(config, sched, F):
    """Exact law of the total payout, {value: probability}, by enumerating
    which of the n agents search, which organic bugs exist and which agent
    finds which bug."""
    mus = [b.mu for b in config.bugs]
    qs = [b.q for b in config.bugs] + [a.q_a for a in sched.artificial]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    n, L, J = config.n, len(mus), len(qs)
    law: dict[float, float] = {}
    for part in product((False, True), repeat=n):
        p_part = math.prod(F if s else 1.0 - F for s in part)
        for exists in product((False, True), repeat=L):
            p_exists = math.prod(mu if e else 1.0 - mu for mu, e in zip(mus, exists))
            for finds in product((False, True), repeat=n * J):
                p_finds = math.prod(qs[k % J] if f else 1.0 - qs[k % J] for k, f in enumerate(finds))
                pay = sum(
                    prizes[j]
                    for j in range(J)
                    if (j >= L or exists[j]) and any(part[i] and finds[i * J + j] for i in range(n))
                )
                law[pay] = law.get(pay, 0.0) + p_part * p_exists * p_finds
    return law


def test_payout_variance_matches_joint_enumeration(uniform01):
    """The payout's variance holds the cross-bug covariance that shared
    participation creates; a sampler drawing each bug's finder count on its
    own would match every marginal z-test but miss it by > 100 standard errors."""
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(0.9, 0.8, 1.0), OrganicBug(0.7, 0.9, 2.0)),
        dist=uniform01,
        budget=5.0,
    )
    sched = PrizeSchedule(v=(1.0, 1.5), artificial=(ArtificialBugDesign(1.0, 0.9),))
    trials = 1 << 18
    law = _payout_law(config, sched, F=0.5)
    mean = sum(x * p for x, p in law.items())
    var = sum((x - mean) ** 2 * p for x, p in law.items())
    mu4 = sum((x - mean) ** 4 * p for x, p in law.items())
    var_se = math.sqrt((mu4 - var * var) / trials)  # std error of the sample variance

    report = simulate(sched, config, SimConfig(trials, 5, threshold=0.5))
    assert report.payout.closed_form == pytest.approx(mean, rel=1e-12)
    assert abs(report.payout.std_error**2 * trials - var) <= 4.0 * var_se

    detect = [s.closed_form for s in report.detect_unconditional + report.detect_artificial]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    var_independent = sum(v * v * p * (1.0 - p) for v, p in zip(prizes, detect))
    assert abs(var_independent - var) > 100.0 * var_se


def test_closed_forms_are_the_equilibrium_outcome():
    """Each row's closed form is the number solve_equilibrium reports, to
    the last digit, not a second derivation of it."""

    def closed(stats):
        return tuple(s.closed_form for s in stats)

    rng = np.random.default_rng(61)
    for _ in range(20):
        game = random_game(rng)
        v = tuple(float(rng.uniform(0.0, 0.5)) for _ in game.bugs)
        art = tuple(
            ArtificialBugDesign(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.1, 1.0)))
            for _ in range(2)
        )
        sched = PrizeSchedule(v=v, artificial=art)
        out = solve_equilibrium(sched, game)
        report = simulate(sched, game, SimConfig(256, 1, out.c_star))
        assert closed(report.detect_unconditional) == out.detect_organic_unconditional
        assert closed(report.detect_conditional) == out.detect_organic_conditional
        assert closed(report.detect_artificial) == out.detect_artificial
        assert report.payout.closed_form == out.expected_payout
        assert report.utility.closed_form == out.designer_utility
