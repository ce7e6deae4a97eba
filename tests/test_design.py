import math

import numpy as np
import pytest

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    collapse_artificial,
    designer_utility,
    expected_benefit_psi,
    omega,
    optimize,
    optimize_public,
    solution_set,
    solve_c0,
    solve_c_a,
    solve_c_tilde,
    solve_equilibrium,
    solve_kappa_star,
    solve_kappa_tilde,
    utility_infinity,
    win_prob_phi,
)
from bountylab import design, game, rootfind
from conftest import random_game, random_public_game


def _with_budget(config, budget):
    return GameConfig(n=config.n, bugs=config.bugs, dist=config.dist, budget=budget)


# -- objective and first-order locus -------------------------------------------


def test_utility_golden_values(private_example):
    assert designer_utility(4 / 33, private_example) == pytest.approx(32 / 363, abs=1e-12)
    assert designer_utility(2 / 9, private_example) == pytest.approx(1 / 9, abs=1e-12)


def test_utility_zero_without_participation():
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 2.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=1.0,
    )
    assert designer_utility(0.5, config) == 0.0


def test_omega_fixed_point_and_origin(private_example):
    assert omega(2 / 9, private_example) == pytest.approx(2 / 9, abs=1e-12)
    assert omega(0.0, private_example) == pytest.approx(0.5, abs=1e-15)


def test_omega_at_zero_is_weighted_q_sum(uniform01):
    config = GameConfig(
        n=4,
        bugs=(OrganicBug(0.3, 0.7, 2.0), OrganicBug(0.9, 0.4, 1.0)),
        dist=uniform01,
        budget=1.0,
    )
    want = 2.0 * 0.3 * 0.7 + 1.0 * 0.9 * 0.4
    assert omega(0.0, config) == pytest.approx(want)


def test_omega_of_a_lone_searcher_at_a_certain_find(uniform01):
    # with n = 1 the miss factor (1 - q F)**0 is 1 even at q F = 1, so
    # Omega(c) = 3 - c stays above c on [0, 1] and c_tilde pins at c_high
    config = GameConfig(n=1, bugs=(OrganicBug(1.0, 1.0, 3.0),), dist=uniform01, budget=1.0)
    assert omega(1.0, config) == 2.0
    assert solve_c_tilde(config) == 1.0


def test_c_tilde_golden(private_example):
    assert solve_c_tilde(private_example) == pytest.approx(2 / 9, abs=1e-9)


def test_c_tilde_increases_in_w(private_example):
    doubled = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 4.0),),
        dist=private_example.dist,
        budget=0.5,
    )
    assert solve_c_tilde(doubled) > solve_c_tilde(private_example) + 1e-6


def test_c_tilde_zero_when_worthless(uniform01):
    config = GameConfig(n=2, bugs=(OrganicBug(0.5, 0.5, 0.0),), dist=uniform01, budget=1.0)
    assert solve_c_tilde(config) == 0.0


# -- achievable thresholds ------------------------------------------------------


def test_c_a_golden(private_example):
    assert solve_c_a(0.5, private_example) == pytest.approx(2 / 5, abs=1e-9)
    assert solve_c_a(2 / 3, private_example) == pytest.approx(0.5, abs=1e-9)


def test_c_a_vanishes_with_budget(private_example):
    assert solve_c_a(1e-6, private_example) < 1e-5


def test_c_a_monotone_in_budget(private_example):
    values = [solve_c_a(b, private_example) for b in (0.1, 0.3, 0.8, 1.5, 3.0)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_c_a_on_unbounded_support_is_the_interior_root():
    # Psi(c) = 100 (1 - F(c) / 2) crosses c at 50, far past the 1 - 1e-12
    # quantile (27.63) that once stood in for the infinite upper end.
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 1.0),),
        dist=CostDistribution.exponential(0.0, 1.0),
        budget=100.0,
    )
    planted = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(100.0, 1.0),))
    c_a = solve_c_a(100.0, config)
    out = solve_equilibrium(planted, config)
    assert out.boundary == "interior" and out.c_star == c_a
    assert c_a == pytest.approx(50.0, abs=1e-9)
    assert abs(expected_benefit_psi(c_a, planted, config) - c_a) <= 1e-10


def test_c_tilde_on_unbounded_support_is_a_sign_change_of_omega():
    # Omega(c) - c = 1e30 e^-c - e^c + 1 - c, with its root near 15 ln 10.
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(1.0, 1.0, 1e30),),
        dist=CostDistribution.exponential(0.0, 1.0),
        budget=1.0,
    )
    c = solve_c_tilde(config)
    assert c == pytest.approx(15 * math.log(10), rel=1e-12)
    below, above = c * (1 - 1e-9), c * (1 + 1e-9)
    assert omega(below, config) - below > 0.0 > omega(above, config) - above


def test_c0_golden(private_example):
    assert solve_c0(0.5, private_example).c_0 == pytest.approx(4 / 33, abs=1e-9)


def test_c0_budget_formula(private_example):
    # closed form 1 / (4 / budget + 1 / 4) for this instance
    for budget in (0.1, 0.5, 1.0, 2.0):
        got = solve_c0(budget, private_example).c_0
        assert got == pytest.approx(1.0 / (4.0 / budget + 0.25), abs=1e-9)


def test_c0_equals_c_a_for_dominant_bug(uniform01):
    config = GameConfig(n=3, bugs=(OrganicBug(1.0, 1.0, 2.0),), dist=uniform01, budget=0.7)
    assert solve_c0(0.7, config).c_0 == pytest.approx(solve_c_a(0.7, config), abs=1e-12)


def test_c0_picks_best_bug(uniform01):
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.2, 0.2, 1.0), OrganicBug(0.9, 0.8, 1.0)),
        dist=uniform01,
        budget=1.0,
    )
    breakdown = solve_c0(1.0, config)
    assert breakdown.best_bug == 1
    assert breakdown.c_0 == max(breakdown.per_bug)
    assert len(breakdown.per_bug) == 2


# -- usefulness of the artificial bug -------------------------------------------


def test_beneficial_golden_cutoff(private_example):
    assert optimize(_with_budget(private_example, 0.5)).beneficial
    assert not optimize(_with_budget(private_example, 1.0)).beneficial
    at_cutoff = optimize(_with_budget(private_example, 16 / 17))
    assert not at_cutoff.beneficial
    assert abs(at_cutoff.margin) < 1e-8


def test_beneficial_false_when_organic_dominates(uniform01):
    # best organic bug is found as easily as any artificial one; nothing to gain
    config = GameConfig(n=2, bugs=(OrganicBug(1.0, 1.0, 50.0),), dist=uniform01, budget=0.4)
    verdict = optimize(config)
    assert not verdict.beneficial
    assert verdict.margin > 0  # c_tilde exceeds c_0, yet the cap c_a = c_0 binds
    assert verdict.gain == 0.0


def _scaled_private_example(s):
    """The private example with costs, bug value and budget all scaled by s."""
    return GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=2.0 * s),),
        dist=CostDistribution.uniform(0.0, s),
        budget=0.5 * s,
    )


@pytest.mark.parametrize("s", [1e-11, 1e-9, 1e-6, 1.0, 1e8])
def test_private_example_is_scale_equivariant(s):
    report = optimize(_scaled_private_example(s))
    for level, exact in ((report.c_tilde, 2 / 9), (report.c_a, 0.4), (report.c_0, 4 / 33)):
        assert abs(level / s - exact) <= 4 * math.ulp(exact)
    assert report.beneficial and not report.marginal


@pytest.mark.parametrize("s", [1e-11, 1.0, 1e8])
@pytest.mark.parametrize("nudge", [0.0, 1e-12, -1e-12])
def test_tie_is_marginal_at_every_scale(s, nudge):
    """With the budget that induces exactly c_tilde on the organic bug, c_0
    ties c_tilde: the verdict is marginal and not beneficial, in the invited
    and in the public program alike. So it is with the budget nudged by 1e-12
    relative, whatever the scale."""
    config = _scaled_private_example(s)
    c_tilde = solve_c_tilde(config)
    budget = c_tilde / (0.5 * win_prob_phi(c_tilde, 0.5, 2, config.dist)) * (1.0 + nudge)
    report = optimize(_with_budget(config, budget))
    assert report.marginal and not report.beneficial

    public = GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=10.0 * s),),
        dist=CostDistribution.uniform(s, 2.0 * s),
        budget=5.0 * s,
    )
    kappa_tilde = solve_kappa_tilde(public)
    budget = kappa_tilde * s / (0.5 * -math.expm1(-0.5 * kappa_tilde)) * (1.0 + nudge)
    limit = optimize_public(_with_budget(public, budget))
    assert limit.marginal and not limit.beneficial


def test_optimize_private_example_evaluation_count(private_example, monkeypatch):
    """The three solves of optimize take at most 40 Psi/Omega evaluations
    together (bisection took 46 each)."""
    evaluations = []

    def counted(g, lo, hi):
        def g_counted(c):
            evaluations.append(c)
            return g(c)

        return rootfind.bisect_decreasing(g_counted, lo, hi)

    monkeypatch.setattr(design, "bisect_decreasing", counted)
    monkeypatch.setattr(game, "bisect_decreasing", counted)
    optimize(private_example)
    assert 0 < len(evaluations) <= 40


# -- the designer optimum --------------------------------------------------------


def test_optimize_private_example_with_artificial(private_example):
    report = optimize(private_example)
    assert report.c_hat_star == pytest.approx(2 / 9, abs=1e-9)
    assert report.beneficial
    assert report.utility_at_optimum == pytest.approx(1 / 9, abs=1e-12)
    assert report.margin == pytest.approx(2 / 9 - 4 / 33, abs=1e-12)
    assert report.gain == pytest.approx(25 / 1089, abs=1e-12)  # W(2/9) - W(4/33) = 1/9 - 32/363
    assert report.canonical_prizes.v == (0.0,)
    art = report.canonical_prizes.artificial[0]
    assert art.q_a == 1.0
    assert art.v_a == pytest.approx(0.25, abs=1e-9)
    assert report.spend == pytest.approx(0.25, abs=1e-9)


def test_optimize_large_budget_needs_no_artificial(private_example):
    report = optimize(_with_budget(private_example, 2.0))
    assert report.c_hat_star == pytest.approx(2 / 9, abs=1e-9)
    assert not report.beneficial
    assert report.canonical_prizes.artificial == ()
    assert report.canonical_prizes.v[0] == pytest.approx(16 / 17, abs=1e-8)


def test_optimize_worthless_bugs(uniform01):
    config = GameConfig(n=2, bugs=(OrganicBug(0.5, 0.5, 0.0),), dist=uniform01, budget=1.0)
    report = optimize(config)
    assert report.c_hat_star == 0.0
    assert report.canonical_prizes.total_posted() == 0.0
    assert report.utility_at_optimum == 0.0


def test_optimize_where_the_incentive_per_prize_unit_underflows(uniform01):
    # mu Phi(c; q) = 5e-324 * 0.5 rounds to 0: the organic schedule takes the
    # whole budget instead of dividing by that 0
    config = GameConfig(n=2, bugs=(OrganicBug(5e-324, 0.5, 2.0),), dist=uniform01, budget=3.0)
    report = optimize(config)
    assert not report.beneficial
    assert report.canonical_prizes.v == (3.0,)


def _invited(rng, allow_artificial):
    config = random_game(rng)
    r = optimize(config, allow_artificial=allow_artificial)
    reached = solve_equilibrium(r.canonical_prizes, config).c_star
    return config, (r.c_tilde, r.c_a, r.c_0, r.c_hat_star), r.canonical_prizes, reached


def _public(rng, allow_artificial):
    config = random_public_game(rng)
    r = optimize_public(config)
    reached = solve_kappa_star(r.prizes, config).kappa_star
    return config, (r.kappa_tilde, r.kappa_a, r.kappa_0, r.kappa_hat_star), r.prizes, reached


@pytest.mark.parametrize(
    "designer, allow_artificial",
    [(_invited, True), (_invited, False), (_public, True)],
    ids=["optimize", "optimize_organic_only", "optimize_public"],
)
def test_optimize_round_trip_sweep(designer, allow_artificial):
    """Both designers: the level is min(free, cap or level_0), the schedule
    stays in budget, and solving its equilibrium gives the level back."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        config, (free, cap, level_0, level), prizes, reached = designer(rng, allow_artificial)
        assert 0.0 <= level_0 <= cap + 1e-12
        assert level == min(free, cap if allow_artificial else level_0)
        assert prizes.total_posted() <= config.budget + 1e-12
        assert allow_artificial or not prizes.artificial
        assert abs(reached - level) <= 1e-8


def test_optimize_budget_constrained_spends_everything(private_example):
    config = _with_budget(private_example, 0.05)  # c_a(0.05) < c_tilde
    report = optimize(config)
    assert report.c_hat_star == pytest.approx(report.c_a, abs=1e-12)
    assert report.spend == pytest.approx(0.05, abs=1e-10)


def test_benefit_verdict_equals_utility_gain():
    rng = np.random.default_rng(29)
    checked = 0
    for _ in range(100):
        config = random_game(rng)
        verdict = optimize(config)
        gain = (
            optimize(config, allow_artificial=True).utility_at_optimum
            - optimize(config, allow_artificial=False).utility_at_optimum
        )
        assert verdict.gain == gain
        if abs(verdict.margin) <= 1e-6:
            continue  # skip knife-edge draws; the band is measure zero
        assert verdict.beneficial == (gain > 1e-10)
        checked += 1
    assert checked >= 90


def _grid_max(utility, lo: float, hi: float) -> float:
    return max(utility(float(x)) for x in np.linspace(lo, hi, 2001))


def test_gain_matches_a_dense_grid_of_reachable_levels():
    """The gain of both programs against the best utility on a 2001-point
    grid of the levels the budget reaches with an artificial bug (up to the
    cap) and without one (up to level_0), over the three cost families. At an
    interior maximum W' = 0, so a grid of step h falls short of it by O(h^2):
    the worst shortfall seen is 2.4e-7 on utilities of order 1, hence 1e-6."""
    rng = np.random.default_rng(37)
    families = set()
    for _ in range(20):
        config = random_game(rng)
        report = optimize(config)
        lo = max(config.dist.c_low, 0.0)

        def utility(c):
            return designer_utility(c, config)

        oracle = _grid_max(utility, lo, report.c_a) - _grid_max(utility, lo, report.c_0)
        assert abs(report.gain - oracle) <= 1e-6

        public = random_public_game(rng)
        limit = optimize_public(public)

        def utility_inf(k):
            return utility_infinity(k, public)

        oracle = _grid_max(utility_inf, 0.0, limit.kappa_a) - _grid_max(utility_inf, 0.0, limit.kappa_0)
        assert abs(limit.gain - oracle) <= 1e-6
        families |= {config.dist.kind, public.dist.kind}
    assert families == {"uniform", "power", "exponential"}


def test_utility_unimodal_sign_matches_omega():
    rng = np.random.default_rng(31)
    for _ in range(20):
        config = random_game(rng)
        lo = max(config.dist.c_low, 0.0)
        hi = config.dist.upper_bound()
        h = (hi - lo) * 1e-7
        for c in np.linspace(lo + 2 * h, hi - 2 * h, 25):
            drift = omega(float(c), config) - c
            if abs(drift) < 1e-6:
                continue
            dw = designer_utility(float(c + h), config) - designer_utility(float(c - h), config)
            if abs(dw) > 1e-14:
                assert np.sign(dw) == np.sign(drift)


# -- one artificial bug suffices -------------------------------------------------


def test_collapse_single_entry_is_identity(private_example):
    sched = PrizeSchedule(v=(0.1,), artificial=(ArtificialBugDesign(0.2, 0.7),))
    assert collapse_artificial(sched, private_example) == sched


def test_collapse_merges_to_highest_q(private_example):
    sched = PrizeSchedule(
        v=(0.1,),
        artificial=(
            ArtificialBugDesign(0.1, 1.0),
            ArtificialBugDesign(0.1, 0.5),
            ArtificialBugDesign(0.05, 0.25),
        ),
    )
    merged = collapse_artificial(sched, private_example)
    assert len(merged.artificial) == 1
    assert merged.artificial[0].q_a == 1.0
    before = solve_equilibrium(sched, private_example)
    after = solve_equilibrium(merged, private_example)
    assert abs(before.c_star - after.c_star) <= 1e-9
    # expected artificial payout is preserved along with the threshold
    pay_before = sum(
        a.v_a * d for a, d in zip(sched.artificial, before.detect_artificial)
    )
    pay_after = merged.artificial[0].v_a * after.detect_artificial[0]
    assert pay_after == pytest.approx(pay_before, abs=1e-9)


def test_collapse_zero_prize_entry(private_example):
    sched = PrizeSchedule(
        v=(0.0,),
        artificial=(ArtificialBugDesign(0.2, 0.5), ArtificialBugDesign(0.0, 0.9)),
    )
    merged = collapse_artificial(sched, private_example)
    assert merged.artificial[0].q_a == 0.9
    before = solve_equilibrium(sched, private_example)
    after = solve_equilibrium(merged, private_example)
    assert abs(before.c_star - after.c_star) <= 1e-9


def test_collapse_all_zero_q(private_example):
    sched = PrizeSchedule(
        v=(0.3,),
        artificial=(ArtificialBugDesign(0.2, 0.0), ArtificialBugDesign(0.1, 0.0)),
    )
    merged = collapse_artificial(sched, private_example)
    assert merged.artificial == (ArtificialBugDesign(0.0, 0.0),)


def test_collapse_sweep_preserves_threshold_and_utility():
    rng = np.random.default_rng(37)
    for _ in range(50):
        config = random_game(rng)
        v = tuple(rng.uniform(0.0, 0.3, len(config.bugs)))
        art = tuple(
            ArtificialBugDesign(float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.05, 1.0)))
            for _ in range(3)
        )
        sched = PrizeSchedule(v=v, artificial=art)
        merged = collapse_artificial(sched, config)
        assert len(merged.artificial) == 1
        before = solve_equilibrium(sched, config)
        after = solve_equilibrium(merged, config)
        assert abs(before.c_star - after.c_star) <= 1e-9
        assert abs(before.designer_utility - after.designer_utility) <= 1e-9


# -- the optimal prize set --------------------------------------------------------


def test_solution_set_hyperplane_coefficients(private_example):
    sset = solution_set(private_example, 2 / 9, 1.0)
    assert sset.coeffs[0] == pytest.approx(17 / 72, abs=1e-12)
    assert sset.coeffs[1] == pytest.approx(8 / 9, abs=1e-12)
    assert sset.feasible


def test_solution_set_infeasible_when_too_complex(private_example):
    config = _with_budget(private_example, 2 / 3)
    sset = solution_set(config, 2 / 9, 0.2)
    assert not sset.feasible
    assert sset.vertices == ()


def _edge_points(sset, points_per_edge):
    """The vertices of ``sset`` and ``points_per_edge`` evenly spaced points
    inside each segment between two of them; the set is convex, so all lie in it."""
    vertices = sset.vertices
    points = list(vertices)
    for i, a in enumerate(vertices):
        for b in vertices[i + 1 :]:
            for s in range(1, points_per_edge + 1):
                t = s / (points_per_edge + 1)
                points.append(tuple((1 - t) * x + t * y for x, y in zip(a, b)))
    return points


def test_solution_set_origin_only_at_zero(private_example):
    sset = solution_set(private_example, 0.0, 1.0)
    assert sset.feasible
    assert sset.vertices == ((0.0, 0.0),)


def test_solution_set_zero_target_keeps_zero_coefficient_face(private_example):
    # with q_a = 0 a planted prize never moves the threshold, so any v_a in
    # [0, budget] next to v = 0 still induces c* = 0
    sset = solution_set(private_example, 0.0, 0.0)
    assert sset.feasible
    assert sset.vertices == ((0.0, 0.0), (0.0, private_example.budget))
    for point in _edge_points(sset, 3):
        sched = PrizeSchedule(
            v=tuple(point[:-1]), artificial=(ArtificialBugDesign(point[-1], 0.0),)
        )
        out = solve_equilibrium(sched, private_example)
        assert out.c_star == 0.0
        assert out.boundary == "pinned_low"


def test_solution_set_points_reproduce_threshold(private_example):
    sset = solution_set(private_example, 2 / 9, 1.0)
    utilities = []
    for point in _edge_points(sset, 9):
        sched = PrizeSchedule(
            v=tuple(point[:-1]), artificial=(ArtificialBugDesign(point[-1], 1.0),)
        )
        out = solve_equilibrium(sched, private_example)
        assert abs(out.c_star - 2 / 9) <= 1e-9
        utilities.append(designer_utility(out.c_star, private_example))
    # utility is a function of the threshold alone, so it is constant here
    assert max(utilities) - min(utilities) <= 1e-8


def test_solution_set_multi_bug_vertices(uniform01):
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 2.0), OrganicBug(0.8, 0.9, 1.0)),
        dist=uniform01,
        budget=1.0,
    )
    sset = solution_set(config, 0.2, 1.0)
    assert sset.feasible
    for point in _edge_points(sset, 3):
        v = tuple(point[:-1])
        sched = PrizeSchedule(v=v, artificial=(ArtificialBugDesign(point[-1], 1.0),))
        out = solve_equilibrium(sched, config)
        assert abs(out.c_star - 0.2) <= 1e-9
