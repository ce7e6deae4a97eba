"""First-stage designer problem: optimal prizes and the one-artificial-bug rule.

The designer maximizes

    W(c_hat) = sum_l w_l mu_l P(c_hat; q_l) - n F(c_hat) c_hat

over thresholds the budget can induce. W is unimodal: its derivative has the
sign of Omega(c_hat) - c_hat, where

    Omega(c_hat) = sum_l w_l mu_l q_l (1 - q_l F(c_hat))**(n-1) - F(c_hat)/f(c_hat),

so the unconstrained optimum c_tilde is the fixed point of Omega. The budget
caps the inducible threshold at c_a (all money on a certain-to-be-found
artificial bug) or, with organic prizes only, at c_0 = max_l c_l (all money
on the single best organic bug). The optimal threshold is min(c_tilde, c_a),
and planting an artificial bug helps exactly when c_tilde > c_0.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import _Record
from .game import (
    ArtificialBugDesign,
    GameConfig,
    PrizeSchedule,
    _detect,
    _log_miss,
    _phi,
    _threshold,
    win_prob_phi,
)
from .rootfind import bisect_decreasing

# |c_tilde - c_0| at or below this times max(|c_tilde|, |c_0|) is reported as
# a marginal verdict; relative, so scaling the game leaves every verdict alone.
MARGINAL_BAND = 1e-10
# Slack on x >= 0 and sum(x) <= budget in a prize slice, times the budget, so
# scaling the game scales every slice's vertices and projections with it.
_FEAS_TOL = 1e-12


def designer_utility(c_hat: float, config: GameConfig) -> float:
    """W(c_hat): expected bug value to the designer net of expected payouts."""
    n, dist = config.n, config.dist
    F = dist.cdf(c_hat)
    return _bug_value(config, lambda q: _detect(c_hat, F, q, n, dist)) - n * F * c_hat


def _bug_value(config: GameConfig, detect: Callable[[float], float]) -> float:
    """sum_l w_l mu_l detect(q_l): the expected value of the organic bugs found."""
    return sum(bug.w * bug.mu * detect(bug.q) for bug in config.bugs)


def omega(c_hat: float, config: GameConfig) -> float:
    """First-order locus: marginal bug value minus the hazard ratio F/f."""
    n, dist = config.n, config.dist
    F = dist.cdf(c_hat)
    total = 0.0
    for bug in config.bugs:
        total += bug.w * bug.mu * bug.q * math.exp(_log_miss(c_hat, F, bug.q, n - 1, dist))
    return total - dist.hazard_ratio(c_hat)


def solve_c_tilde(config: GameConfig) -> float:
    """Fixed point of Omega: the unconstrained optimal threshold.

    Clamped to the designer-relevant range [max(c_low, 0), c_high]; when
    Omega is one-sided on that range the nearer (finite) endpoint is returned.
    """
    lo = max(config.dist.c_low, 0.0)
    return bisect_decreasing(lambda c: omega(c, config) - c, lo, config.dist.c_high)[0]


def solve_c_a(budget: float, config: GameConfig) -> float:
    """Highest inducible threshold: equilibrium of the whole budget posted on
    an artificial bug with q_a = 1 (fixed point of budget * Phi(c; 1))."""
    if not budget > 0.0:
        raise ValueError("budget must be > 0")
    return _threshold(_planted(config, budget), config)[0]


def _planted(config: GameConfig, v_a: float) -> PrizeSchedule:
    """Everything on one artificial bug with q_a = 1, nothing on organic ones."""
    return PrizeSchedule(
        v=(0.0,) * len(config.bugs), artificial=(ArtificialBugDesign(v_a=v_a, q_a=1.0),)
    )


def _on_bug(config: GameConfig, l: int, v_l: float) -> PrizeSchedule:
    """Everything on organic bug l, no artificial entry."""
    v = [0.0] * len(config.bugs)
    v[l] = v_l
    return PrizeSchedule.organic_only(v)


class C0Breakdown(_Record):
    """Best threshold reachable with organic prizes only, and per-bug detail."""

    c_0: float
    per_bug: tuple[float, ...]
    best_bug: int  # index into config.bugs


def solve_c0(budget: float, config: GameConfig) -> C0Breakdown:
    """Per-bug fixed points of budget * mu_l * Phi(c; q_l) and their max."""
    return _best_single_bug(
        C0Breakdown, budget, config, lambda prizes: _threshold(prizes, config)[0]
    )


def _best_single_bug(
    breakdown: type, budget: float, config: GameConfig, level: Callable[[PrizeSchedule], float]
):
    """``breakdown(best level, per-bug levels, best bug)``, where ``level(prizes)``
    is what the whole budget on one organic bug induces; the first bug wins a tie."""
    if not budget > 0.0:
        raise ValueError("budget must be > 0")
    levels = tuple(level(_on_bug(config, l, budget)) for l in range(len(config.bugs)))
    best = max(range(len(levels)), key=levels.__getitem__)
    return breakdown(levels[best], levels, best)


class DesignReport(_Record):
    """Solved designer problem with a canonical (minimal-spend) schedule.

    ``margin`` is c_tilde - c_0 and ``gain`` the utility an artificial bug adds,
    W(min(c_tilde, c_a)) - W(min(c_tilde, c_0)). ``beneficial``: min(c_tilde,
    c_a) - c_0 exceeds ``MARGINAL_BAND`` max(|c_tilde|, |c_0|); ``marginal``:
    |margin| does not."""

    c_tilde: float
    c_a: float
    c_0: float
    c_hat_star: float
    beneficial: bool
    marginal: bool
    margin: float
    gain: float
    canonical_prizes: PrizeSchedule
    utility_at_optimum: float
    spend: float
    per_bug_c: tuple[float, ...]
    best_bug: int


def optimize(config: GameConfig) -> DesignReport:
    """Optimal threshold min(c_tilde, c_a) and one schedule that attains it.

    The optimum is a whole set of prize vectors; the canonical representative
    is the minimal-total-spend point: everything on an artificial bug with
    q_a = 1 when that helps, otherwise everything on the most cost-effective
    organic bug, scaled to hit the target threshold exactly.
    """
    n, dist = config.n, config.dist
    c_tilde = solve_c_tilde(config)
    c_a = solve_c_a(config.budget, config)
    c0b = solve_c0(config.budget, config)

    def incentive(c: float):
        F = dist.cdf(c)
        return c, F, lambda q: _phi(c, F, q, n, dist)

    c_hat_star, schedule, verdict = _design(config, c_tilde, c_a, c0b, incentive, designer_utility)
    return DesignReport(
        c_tilde=c_tilde,
        c_a=c_a,
        c_0=c0b.c_0,
        c_hat_star=c_hat_star,
        canonical_prizes=schedule,
        spend=schedule.total_posted(),
        per_bug_c=c0b.per_bug,
        best_bug=c0b.best_bug,
        **verdict,
    )


def _design(
    config: GameConfig, free: float, cap: float, single, incentive, utility
) -> tuple[float, PrizeSchedule, dict]:
    """The designer algorithm of the invited and the public program, run on
    their three solves: the free optimum, the cap (the whole budget on one
    q_a = 1 planted bug) and the best single-organic-bug breakdown. Returns
    the level min(free, cap), the minimal-spend schedule and the report
    fields both programs share (see ``DesignReport``). ``incentive(level)``
    returns the incentive the level needs, its participation, and
    ``unit(q)``, the incentive one prize unit buys on a bug of find
    probability q; ``utility`` is the program's W."""
    level_0 = single.per_bug[single.best_bug]
    # An artificial bug pays off iff it moves the constrained optimum, i.e.
    # min(free, cap) > level_0. On any config whose best organic bug has
    # mu q < 1 this is the plain free > level_0 test (since then cap > level_0);
    # the min() guard only matters when level_0 = cap and nothing can be gained.
    band = MARGINAL_BAND * max(abs(free), abs(level_0))
    level = min(free, cap)
    beneficial = level - level_0 > band
    with_artificial = utility(level, config)
    target, participation, unit = incentive(level)
    if target <= 0.0 or participation <= 0.0:
        schedule = PrizeSchedule.zero(len(config.bugs))
    else:
        # the planted bug is a bug with mu = q = 1
        bug = config.bugs[single.best_bug]
        mu, q = (1.0, 1.0) if beneficial else (bug.mu, bug.q)
        per_unit = mu * unit(q)
        # a per-unit incentive that underflows to 0 needs the whole budget
        prize = min(target / per_unit, config.budget) if per_unit > 0.0 else config.budget
        schedule = _planted(config, prize) if beneficial else _on_bug(config, single.best_bug, prize)
    return level, schedule, dict(
        beneficial=beneficial,
        marginal=abs(free - level_0) <= band,
        margin=free - level_0,
        gain=with_artificial - utility(min(free, level_0), config),
        utility_at_optimum=with_artificial,
    )


def collapse_artificial(prizes: PrizeSchedule, config: GameConfig) -> PrizeSchedule:
    """Merge all artificial entries into one without moving the equilibrium.

    Keeps the entry with the highest q_a and tops its prize up by the other
    entries' contributions weighted by their relative win probabilities at
    the original equilibrium; both the fixed-point condition and the expected
    artificial payout are preserved.
    """
    if not prizes.artificial:
        return prizes
    if all(a.q_a == 0.0 for a in prizes.artificial):
        return PrizeSchedule(v=prizes.v, artificial=(ArtificialBugDesign(0.0, 0.0),))
    c_star = _threshold(prizes, config)[0]
    keep = max(range(len(prizes.artificial)), key=lambda k: prizes.artificial[k].q_a)
    q_keep = prizes.artificial[keep].q_a
    phi_keep = win_prob_phi(c_star, q_keep, config.n, config.dist)
    v_new = prizes.artificial[keep].v_a
    for k, art in enumerate(prizes.artificial):
        if k == keep:
            continue
        v_new += art.v_a * win_prob_phi(c_star, art.q_a, config.n, config.dist) / phi_keep
    return PrizeSchedule(
        v=prizes.v, artificial=(ArtificialBugDesign(v_a=v_new, q_a=q_keep),)
    )


class SolutionSet(_Record):
    """Prize vectors (v_1..v_L, v_a) inducing a target threshold at fixed q_a.

    The set is the hyperplane ``coeffs . x = target`` cut down by x >= 0 and
    sum(x) <= budget; ``coeffs`` are the per-prize-unit incentives
    mu_l Phi(target; q_l) and Phi(target; q_a).
    """

    coeffs: tuple[float, ...]
    target: float
    budget: float
    q_a: float
    feasible: bool
    vertices: tuple[tuple[float, ...], ...]


def solution_set(config: GameConfig, c_target: float, q_a: float) -> SolutionSet:
    """Describe every budget-feasible prize split attaining ``c_target``.

    Round-tripping any returned point through solve_equilibrium reproduces
    c_target, provided the target is an interior equilibrium level (above
    max(c_low, 0) and at most c_a). A target of 0 is met by the origin and by
    any budget-feasible split over instruments whose coefficient is 0 (an
    artificial bug with q_a = 0): the vertices are the origin and budget * e_j
    for each such j. An unreachable target is flagged infeasible with no
    vertices.
    """
    if not 0.0 <= q_a <= 1.0:
        raise ValueError("q_a must lie in [0, 1]")
    coeffs = _slice_coeffs(config, lambda q: win_prob_phi(c_target, q, config.n, config.dist), q_a)
    budget = config.budget
    if c_target < 0.0:
        return SolutionSet(coeffs, c_target, budget, q_a, False, ())
    if c_target == 0.0:
        vertices = [(0.0,) * len(coeffs)]
        for j, a_j in enumerate(coeffs):
            if a_j == 0.0:
                point = [0.0] * len(coeffs)
                point[j] = budget
                vertices.append(tuple(point))
        return SolutionSet(coeffs, c_target, budget, q_a, True, tuple(sorted(vertices)))

    vertices = _vertices(coeffs, c_target, budget)
    return SolutionSet(coeffs, c_target, budget, q_a, bool(vertices), vertices)


def _slice_coeffs(config: GameConfig, unit: Callable[[float], float], q_a: float) -> tuple:
    """A slice's coefficients: mu_l unit(q_l) per organic bug, then unit(q_a) last."""
    return tuple([bug.mu * unit(bug.q) for bug in config.bugs] + [unit(q_a)])


def _vertices(coeffs, rhs: float, budget: float) -> tuple[tuple[float, ...], ...]:
    """Sorted vertices of {coeffs . x = rhs, x >= 0, sum(x) <= budget}: the
    points where the hyperplane crosses an edge of the budget simplex."""
    vertices: list[tuple[float, ...]] = []
    dim = len(coeffs)
    tol = _FEAS_TOL * budget
    for i, a_i in enumerate(coeffs):
        # single-instrument points
        if a_i > 0.0 and rhs / a_i <= budget + tol:
            point = [0.0] * dim
            point[i] = rhs / a_i
            vertices.append(tuple(point))
    for i in range(dim):
        # points where the budget constraint binds with two instruments
        for j in range(i + 1, dim):
            a_i, a_j = coeffs[i], coeffs[j]
            if a_i == a_j:
                continue
            x_i = (rhs - a_j * budget) / (a_i - a_j)
            x_j = budget - x_i
            if x_i >= -tol and x_j >= -tol:
                point = [0.0] * dim
                point[i], point[j] = max(x_i, 0.0), max(x_j, 0.0)
                vertices.append(tuple(point))
    return tuple(sorted(set(vertices)))
