import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    convergence_table,
    detect_prob_infinity,
    optimize,
    optimize_public,
    psi_infinity,
    solution_set,
    solution_set_distance,
    solve_kappa0,
    solve_kappa_a,
    solve_kappa_star,
    solve_kappa_tilde,
    utility_infinity,
)
from bountylab import asymptotic
from bountylab.asymptotic import _optimal_levels, _projection_distance, _zero_patterns
from bountylab.design import _vertices
from conftest import random_public_game

KAPPA_TILDE = 2.0 * math.log(2.5)
# high-precision bisection values for the open-program example instance
KAPPA_A_5 = 4.9651142317442763
KAPPA_STAR_V5 = 0.9284255087576333

ALL_ON_ORGANIC = PrizeSchedule.organic_only((5.0,))


def _with_budget(config, budget):
    return GameConfig(n=config.n, bugs=config.bugs, dist=config.dist, budget=budget)


# -- limiting benefit and participation -----------------------------------------


def test_psi_infinity_values(public_example):
    assert psi_infinity(0.0, ALL_ON_ORGANIC, public_example) == 0.0
    assert psi_infinity(2.0, ALL_ON_ORGANIC, public_example) == pytest.approx(
        1.5803013970713942, abs=1e-12
    )
    # exponentials vanish: the bound is the discounted posted prize mass
    assert psi_infinity(1e6, ALL_ON_ORGANIC, public_example) == pytest.approx(2.5)


def test_psi_infinity_rejects_nonpositive_floor(private_example):
    with pytest.raises(ValueError):
        psi_infinity(1.0, PrizeSchedule.zero(1), private_example)


def test_kappa_star_trivial_cases(public_example):
    out = solve_kappa_star(PrizeSchedule.zero(1), public_example)
    assert out.kappa_star == 0.0 and out.trivial

    # slope at zero is 1 * 1/4 <= 1: concavity keeps Psi below the diagonal
    out = solve_kappa_star(PrizeSchedule.organic_only((1.0,)), public_example)
    assert out.kappa_star == 0.0 and out.trivial


def test_kappa_star_positive_fixed_point(public_example):
    out = solve_kappa_star(ALL_ON_ORGANIC, public_example)
    assert not out.trivial
    assert out.kappa_star == pytest.approx(KAPPA_STAR_V5, abs=1e-9)
    resid = psi_infinity(out.kappa_star, ALL_ON_ORGANIC, public_example) - out.kappa_star
    assert abs(resid) <= 1e-10


def test_kappa_star_just_above_unit_slope(public_example):
    # slope v_a / c_low = 1 + 1e-13: the positive root is ~2 (v_a - 1)
    v_a = 1.0 + 1e-13
    prizes = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(v_a=v_a, q_a=1.0),))
    out = solve_kappa_star(prizes, public_example)
    assert not out.trivial
    assert out.kappa_star == pytest.approx(2.0 * (v_a - 1.0), rel=0.01)


def test_detect_infinity_values():
    assert detect_prob_infinity(0.0, 3.0) == 0.0
    assert detect_prob_infinity(0.7, 0.0) == 0.0
    assert detect_prob_infinity(0.5, KAPPA_TILDE) == pytest.approx(0.6, abs=1e-14)


@pytest.mark.parametrize("kappa", [-1.0, math.nan])
def test_limit_functions_reject_bad_kappa(public_example, kappa):
    with pytest.raises(ValueError, match="kappa must be >= 0"):
        detect_prob_infinity(0.5, kappa)
    with pytest.raises(ValueError, match="kappa must be >= 0"):
        utility_infinity(kappa, public_example)


def test_utility_infinity_values(public_example):
    assert utility_infinity(0.0, public_example) == 0.0
    assert utility_infinity(KAPPA_TILDE, public_example) == pytest.approx(
        3.0 - KAPPA_TILDE, abs=1e-12
    )
    worthless = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 0.0),),
        dist=public_example.dist,
        budget=5.0,
    )
    assert utility_infinity(1.3, worthless) == pytest.approx(-1.3)


# -- designer-side kappas --------------------------------------------------------


def test_kappa_tilde_golden(public_example):
    assert solve_kappa_tilde(public_example) == pytest.approx(KAPPA_TILDE, abs=1e-9)


def test_kappa_tilde_boundary(public_example):
    # sum w mu q = c_low exactly
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 4.0),),
        dist=public_example.dist,
        budget=5.0,
    )
    assert solve_kappa_tilde(config) == 0.0


def test_kappa_tilde_monotone_in_w(public_example):
    doubled = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 20.0),),
        dist=public_example.dist,
        budget=5.0,
    )
    assert solve_kappa_tilde(doubled) > solve_kappa_tilde(public_example) + 1e-6


def test_kappa_a_values(public_example):
    assert solve_kappa_a(0.9, public_example) == 0.0  # budget below the floor
    assert solve_kappa_a(5.0, public_example) == pytest.approx(KAPPA_A_5, abs=1e-6)
    assert solve_kappa_a(100.0, public_example) == pytest.approx(100.0, abs=1e-6)
    grid = [solve_kappa_a(b, public_example) for b in (1.5, 2.0, 5.0, 20.0)]
    assert all(b >= a for a, b in zip(grid, grid[1:]))


def test_kappa0_is_kappa_star_of_the_single_bug_schedule(public_example):
    # kappa_0 per bug is kappa_star with the whole budget on that bug, to the bit
    rng = np.random.default_rng(41)
    configs = [public_example] + [random_public_game(rng, nice_floor=True) for _ in range(4)]
    assert sum(len(config.bugs) for config in configs) >= 5
    for config in configs:
        breakdown = solve_kappa0(config.budget, config)
        for l in range(len(config.bugs)):
            v = [0.0] * len(config.bugs)
            v[l] = config.budget
            expected = solve_kappa_star(PrizeSchedule.organic_only(v), config).kappa_star
            assert breakdown.per_bug[l] == expected
        assert breakdown.kappa_0 == max(breakdown.per_bug)


# -- the public optimum ------------------------------------------------------------


def test_optimize_public_example(public_example):
    report = optimize_public(public_example)
    assert report.kappa_hat_star == pytest.approx(KAPPA_TILDE, abs=1e-9)
    assert report.kappa_a == pytest.approx(KAPPA_A_5, abs=1e-6)
    assert report.kappa_hat_star == min(report.kappa_tilde, report.kappa_a)
    assert report.beneficial
    assert report.assumption_notes == ()
    out = solve_kappa_star(report.prizes, public_example)
    assert abs(out.kappa_star - report.kappa_hat_star) <= 1e-8


def test_optimize_public_budget_constrained(public_example):
    report = optimize_public(_with_budget(public_example, 1.2))
    assert report.kappa_hat_star == pytest.approx(report.kappa_a, abs=1e-12)
    assert report.kappa_a < report.kappa_tilde
    art = report.prizes.artificial[0]
    assert art.q_a == 1.0
    assert art.v_a == pytest.approx(1.2, abs=1e-9)  # full budget on the planted bug
    out = solve_kappa_star(report.prizes, public_example)
    assert abs(out.kappa_star - report.kappa_hat_star) <= 1e-8


def test_optimize_public_worthless(public_example):
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 0.0),),
        dist=public_example.dist,
        budget=5.0,
    )
    report = optimize_public(config)
    assert report.kappa_hat_star == 0.0
    assert report.prizes.total_posted() == 0.0
    assert any("w*mu*q" in note for note in report.assumption_notes)


def test_beneficial_public_example(public_example):
    verdict = optimize_public(public_example)
    assert verdict.beneficial
    assert verdict.kappa_tilde == pytest.approx(KAPPA_TILDE, abs=1e-9)
    assert verdict.kappa_0 == pytest.approx(KAPPA_STAR_V5, abs=1e-9)
    assert verdict.margin == pytest.approx(KAPPA_TILDE - KAPPA_STAR_V5, abs=1e-9)
    # W_inf(k) = 5 (1 - exp(-k / 2)) - k, and exp(-KAPPA_TILDE / 2) = 0.4
    organic_only = 5.0 * -math.expm1(-KAPPA_STAR_V5 / 2.0) - KAPPA_STAR_V5
    assert verdict.gain == pytest.approx(3.0 - KAPPA_TILDE - organic_only, abs=1e-9)


def test_beneficial_public_dominant_organic():
    # mu = q = 1: the organic bug is as incentive-efficient as any artificial
    # one, so planting can never help, whatever the budget or valuation
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(1.0, 1.0, 20.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=1.5,
    )
    verdict = optimize_public(config)
    assert not verdict.beneficial
    assert verdict.kappa_tilde > verdict.kappa_0  # the naive margin misleads here


def test_beneficial_public_switches_with_budget(public_example):
    verdicts = [
        optimize_public(_with_budget(public_example, b)).beneficial
        for b in (5.0, 20.0, 100.0)
    ]
    assert verdicts[0] is True
    assert verdicts[-1] is False


# -- convergence -------------------------------------------------------------------


def test_convergence_table_example(public_example):
    rows = convergence_table(public_example, ALL_ON_ORGANIC, [2, 5, 10, 50, 200, 1000])
    c_n = [r["c_n"] for r in rows]
    assert all(b < a for a, b in zip(c_n, c_n[1:]))  # decreasing toward c_low = 1
    gaps = [r["abs_nF_minus_kappa"] for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.05
    kappa = rows[-1]["kappa_star"]
    p_inf = detect_prob_infinity(0.5, kappa)
    assert abs(rows[-1]["P_n_bug_1"] - p_inf) < 0.01


def test_convergence_table_degenerate_row(public_example):
    rows = convergence_table(public_example, ALL_ON_ORGANIC, [1])
    # a single searching agent wins any found bug outright: Psi is constant
    from bountylab import solve_equilibrium

    out = solve_equilibrium(ALL_ON_ORGANIC, public_example.with_n(1))
    assert rows[0]["c_n"] == pytest.approx(out.c_star, abs=1e-12)


def test_convergence_table_rejects_huge_n(public_example):
    with pytest.raises(ValueError):
        convergence_table(public_example, ALL_ON_ORGANIC, [10**6 + 1])


def test_distribution_free_limit():
    prizes = PrizeSchedule.organic_only((5.0,))
    kappas = []
    for dist in (
        CostDistribution.uniform(1.0, 2.0),
        CostDistribution.power(1.0, 2.0, 2.0),
    ):
        config = GameConfig(
            n=2, bugs=(OrganicBug(0.5, 0.5, 10.0),), dist=dist, budget=5.0
        )
        kappas.append(solve_kappa_star(prizes, config).kappa_star)
    assert abs(kappas[0] - kappas[1]) <= 1e-10


# -- solution-set convergence ----------------------------------------------------------

TWO_BUGS = GameConfig(
    n=2,
    bugs=(OrganicBug(0.5, 0.5, 10.0), OrganicBug(0.5, 0.4, 8.0)),
    dist=CostDistribution.uniform(1.0, 2.0),
    budget=6.0,
)
FIG5_Q_A = (1.0 / 3.0, 0.5, 1.0)
FIG5_N = (5, 20, 100, 500)


def _slices(config, n, q_a):
    """(coeffs, rhs) of the finite-n and the limit slice, built independently
    of solution_set_distance."""
    cfg_n = config.with_n(n)
    c_star = optimize(cfg_n).c_hat_star
    finite = solution_set(cfg_n, c_star, q_a).coeffs
    k = optimize_public(config).kappa_hat_star
    c_low = config.dist.c_low
    limit = [b.mu * -math.expm1(-b.q * k) / c_low for b in config.bugs]
    return (finite, c_star), (tuple(limit) + (-math.expm1(-q_a * k) / c_low,), k)


def _grid_points(coeffs, rhs, budget, step):
    """Grid oracle: points of {a . x = rhs, x >= 0, sum x <= budget} on a
    step-``step`` grid in all but the last coordinate, which is solved for."""
    a = np.asarray(coeffs, dtype=float)
    axes = [np.arange(0.0, budget + step, step) for _ in a[:-1]]
    flat = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    last = (rhs - flat @ a[:-1]) / a[-1]
    keep = (last >= -1e-12) & (flat.sum(axis=1) + last <= budget + 1e-9)
    return np.concatenate([flat[keep], last[keep, None]], axis=1)


def _directed(pa, pb, block=1024):
    # max over pa of the distance to the nearest point of pb, in row blocks
    # so memory stays at block * len(pb) squared distances
    sq_b = (pb * pb).sum(axis=1)
    worst = 0.0
    for i in range(0, len(pa), block):
        rows = pa[i : i + block]
        sq = (rows * rows).sum(axis=1)[:, None] + sq_b[None, :] - 2.0 * rows @ pb.T
        worst = max(worst, float(sq.min(axis=1).max()))
    return math.sqrt(max(worst, 0.0))


def _segment_point_distance(p, a, b):
    p, a, b = (np.asarray(x, dtype=float) for x in (p, a, b))
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def _segment_in_simplex(a1, a2, rhs, budget):
    """Endpoints of {a1 v + a2 v_a = rhs, v, v_a >= 0, v + v_a <= budget}."""
    lo, hi = 0.0, rhs / a1
    slope, bound = 1.0 - a1 / a2, budget - rhs / a2
    if slope > 0.0:
        hi = min(hi, bound / slope)
    elif slope < 0.0:
        lo = max(lo, bound / slope)
    assert lo <= hi
    return [(v, (rhs - a1 * v) / a2) for v in (lo, hi)]


def _segment_hausdorff(seg1, seg2):
    # the sup over a segment of a convex function sits at an endpoint
    return max(
        max(_segment_point_distance(p, *seg2) for p in seg1),
        max(_segment_point_distance(p, *seg1) for p in seg2),
    )


def test_solution_set_distance_decreasing(public_example):
    for q_a in (1.0 / 3.0, 0.5, 1.0):
        distances = []
        for n in (5, 20, 100):
            result = solution_set_distance(public_example, n, q_a)
            assert result.feasible
            distances.append(result.distance)
        assert all(b < a for a, b in zip(distances, distances[1:]))


def test_solution_set_distance_matches_segment_formula(public_example):
    # one organic bug: both slices are segments with a closed-form distance
    for q_a in (1.0 / 3.0, 0.5, 1.0):
        for n in (5, 20, 100):
            (a_n, r_n), (a_inf, r_inf) = _slices(public_example, n, q_a)
            budget = public_example.budget
            oracle = _segment_hausdorff(
                _segment_in_simplex(*a_n, r_n, budget), _segment_in_simplex(*a_inf, r_inf, budget)
            )
            got = solution_set_distance(public_example, n, q_a).distance
            assert abs(got - oracle) <= 1e-12, (q_a, n, got, oracle)


def test_solution_set_distance_within_grid_bound():
    # the step-0.05 grid lies within 0.05 * sqrt(3) of each slice
    step = 0.05
    for q_a in FIG5_Q_A:
        for n in FIG5_N:
            (a_n, r_n), (a_inf, r_inf) = _slices(TWO_BUGS, n, q_a)
            pts_n = _grid_points(a_n, r_n, TWO_BUGS.budget, step)
            pts_inf = _grid_points(a_inf, r_inf, TWO_BUGS.budget, step)
            sampled = max(_directed(pts_n, pts_inf), _directed(pts_inf, pts_n))
            exact = solution_set_distance(TWO_BUGS, n, q_a).distance
            assert abs(exact - sampled) <= step * math.sqrt(3.0), (q_a, n, exact, sampled)


def test_solution_set_distance_decreasing_two_bugs():
    for q_a in FIG5_Q_A:
        distances = [solution_set_distance(TWO_BUGS, n, q_a).distance for n in FIG5_N]
        assert all(math.isfinite(d) for d in distances)
        assert all(b < a for a, b in zip(distances, distances[1:])), (q_a, distances)


def test_solution_set_distance_vanishes_off_unit_floor():
    # the limit slice is coeffs . x = kappa with coeffs scaled by 1 / c_low;
    # at c_low = 2 the distance must still shrink toward 0 as n grows
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 20.0),),
        dist=CostDistribution.uniform(2.0, 3.0),
        budget=10.0,
    )
    for q_a in (1.0 / 3.0, 1.0):
        distances = [solution_set_distance(config, n, q_a).distance for n in (20, 100, 1000)]
        assert all(b < a for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 0.01


def test_solution_set_distance_infeasible_slice(public_example):
    # tiny budget: neither the finite-n nor the limit slice meets the simplex
    result = solution_set_distance(_with_budget(public_example, 1.01), 5, 0.05)
    assert not result.feasible


def test_budget_over_a_subnormal_floor_is_rejected(public_example):
    # budget / c_low overflows: Psi_inf with the budget planted is inf at every
    # kappa > 0, so kappa_a has no float root and no verdict can be read
    config = GameConfig(
        n=2, bugs=public_example.bugs, dist=CostDistribution.uniform(5e-324, 2.0), budget=5.0
    )
    with pytest.raises(ValueError, match="largest float"):
        optimize_public(config)


def test_solution_set_distance_rejects_a_coefficient_that_squares_to_zero():
    # mu (1 - exp(-q kappa)) / c_low for q = 1e-300 is about 1e-300: its square
    # underflows, and the projection would divide by it
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=1e-300, w=10.0),),
        dist=CostDistribution.uniform(1e-300, 2.0),
        budget=5.0,
    )
    with pytest.raises(ValueError, match="float range"):
        solution_set_distance(config, 5, 0.5)


def test_solution_set_distance_rejects_bad_args(public_example):
    with pytest.raises(ValueError):
        solution_set_distance(public_example, 1, 0.5)
    with pytest.raises(ValueError):
        solution_set_distance(public_example, 5, 0.0)


def test_solution_set_distance_caps_the_bug_count(public_example, monkeypatch):
    def enumerate_patterns(coeffs):
        raise AssertionError("the zero patterns were enumerated")

    monkeypatch.setattr(asymptotic, "_zero_patterns", enumerate_patterns)
    # a budget at which the slices are feasible, so only the cap stops the enumeration
    bugs = public_example.bugs * (asymptotic.MAX_SLICE_BUGS + 1)
    config = GameConfig(n=2, bugs=bugs, dist=public_example.dist, budget=20.0)
    with pytest.raises(ValueError, match="at most"):
        solution_set_distance(config, 5, 0.5)


def _scaled_two_bugs(s):
    return GameConfig(
        n=2,
        bugs=tuple(OrganicBug(b.mu, b.q, b.w * s) for b in TWO_BUGS.bugs),
        dist=CostDistribution.uniform(1.0 * s, 2.0 * s),
        budget=TWO_BUGS.budget * s,
    )


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1e-3, 1e3, 1e6, 1e9])
def test_solution_set_distance_is_scale_equivariant(s):
    # costs, values and budget times s scale every prize vector, so every
    # distance, by s; the feasibility slack must scale with them
    scaled = _scaled_two_bugs(s)
    for q_a in FIG5_Q_A:
        for n in FIG5_N:
            base = solution_set_distance(TWO_BUGS, n, q_a).distance
            got = solution_set_distance(scaled, n, q_a).distance
            assert got / s == pytest.approx(base, rel=1e-10), (q_a, n, got / s, base)


def _dykstra_distances(points, coeffs, rhs, budget, sweeps=50_000):
    """Distance from each point to {coeffs . x = rhs, x >= 0, sum(x) <= budget}
    by Dykstra's alternating projections onto the hyperplane, the nonnegative
    orthant and the budget half-space, all points at once."""
    a = np.asarray(coeffs, dtype=float)
    p = np.asarray(points, dtype=float)
    sets = (
        lambda z: z - ((z @ a - rhs) / (a @ a))[:, None] * a,
        lambda z: np.maximum(z, 0.0),
        lambda z: z - (np.maximum(z.sum(axis=1) - budget, 0.0) / z.shape[1])[:, None],
    )
    x = p.copy()
    increments = [np.zeros_like(p) for _ in sets]
    for _ in range(sweeps):
        before = x
        for k, project in enumerate(sets):
            z = x + increments[k]
            x = project(z)
            increments[k] = z - x
        if np.abs(x - before).max() <= 1e-16 * budget:
            break
    return np.linalg.norm(p - x, axis=1)


def _assert_projections_match_dykstra(points, coeffs, rhs, budget):
    oracle = _dykstra_distances(points, coeffs, rhs, budget)
    patterns = _zero_patterns(coeffs)
    got = [_projection_distance(tuple(v), patterns, rhs, budget) for v in points]
    assert np.abs(np.asarray(got) - oracle).max() <= 1e-12 * budget, (coeffs, rhs, got, oracle)


def test_projection_matches_dykstra_on_figure5_slices():
    # L = 2: each vertex of one slice projected onto the other, both ways
    budget = TWO_BUGS.budget
    for q_a in FIG5_Q_A:
        for n in FIG5_N:
            (a_n, r_n), (a_inf, r_inf) = _slices(TWO_BUGS, n, q_a)
            _assert_projections_match_dykstra(_vertices(a_n, r_n, budget), a_inf, r_inf, budget)
            _assert_projections_match_dykstra(_vertices(a_inf, r_inf, budget), a_n, r_n, budget)


def test_projection_matches_dykstra_on_random_slices():
    # L = 3, points inside and outside the budget simplex
    rng = np.random.default_rng(7)
    for _ in range(12):
        coeffs = tuple(float(a) for a in rng.uniform(0.1, 2.0, 4))
        budget = float(rng.uniform(1.0, 5.0))
        rhs = float(rng.uniform(0.05, 0.95)) * budget * max(coeffs)
        points = rng.uniform(-1.0, budget, (6, 4))
        _assert_projections_match_dykstra(points, coeffs, rhs, budget)


@st.composite
def _public_games(draw):
    """Games with c_low > 0 over uniform, power (alpha below and above 1)
    and exponential costs."""
    c_low = draw(st.floats(0.1, 2.0))
    width = draw(st.floats(0.2, 3.0))
    family = draw(st.sampled_from(["uniform", "power_low", "power_high", "exponential"]))
    if family == "uniform":
        dist = CostDistribution.uniform(c_low, c_low + width)
    elif family == "exponential":
        dist = CostDistribution.exponential(c_low, draw(st.floats(0.3, 3.0)))
    else:
        alpha = draw(st.floats(0.2, 0.9) if family == "power_low" else st.floats(1.1, 4.0))
        dist = CostDistribution.power(c_low, c_low + width, alpha)
    bug = st.builds(OrganicBug, st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 30.0))
    return GameConfig(
        n=draw(st.integers(2, 60)),
        bugs=tuple(draw(st.lists(bug, min_size=1, max_size=3))),
        dist=dist,
        budget=draw(st.floats(0.05, 20.0)),
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_public_games())
def test_optimal_levels_are_the_designers(config):
    # solution_set_distance reads only these two levels: they must be the
    # designers' own optimum, to the last bit
    c_star, k_star = _optimal_levels(config)
    assert c_star == optimize(config).c_hat_star
    assert k_star == optimize_public(config).kappa_hat_star


# -- finite/asymptotic verdict agreement -----------------------------------------------


def test_public_private_verdicts_agree_for_large_n():
    # drawn over families with a positive finite density at c_low; power laws
    # with alpha near 2 can push the verdict flip beyond n = 2000 even at a
    # kappa margin of 0.1 (the equivalence is only asymptotic)
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        config = random_public_game(rng, nice_floor=True)
        verdict = optimize_public(config)
        if abs(verdict.margin) <= 0.05:
            continue
        public_says = verdict.beneficial
        for n in (200, 500, 2000):
            cfg_n = config.with_n(n)
            private_says = optimize(cfg_n).beneficial
            assert private_says == public_says, (config, n)
        checked += 1


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(_public_games())
def test_gain_is_never_negative(config):
    # an artificial bug can only add utility, and adds none where the free
    # optimum is reachable without it, in the invited and the public program
    invited, limit = optimize(config), optimize_public(config)
    assert invited.gain >= 0.0 and limit.gain >= 0.0
    if invited.c_tilde <= invited.c_0:
        assert invited.gain == 0.0
    if limit.kappa_tilde <= limit.kappa_0:
        assert limit.gain == 0.0
