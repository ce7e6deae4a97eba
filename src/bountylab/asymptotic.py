"""Public-program limit: participation, detection, and design as n grows.

With a strictly positive lowest cost c_low, only the cheapest searchers stay
in as the crowd grows, and the game is summarized by the expected number of
active searchers kappa = n F(c_n). In the limit:

    Psi_inf(kappa) = sum_l v_l mu_l (1 - exp(-q_l kappa)) / c_low
                     + sum_k v_a_k (1 - exp(-q_a_k kappa)) / c_low

whose positive fixed point kappa_star is the limiting participation;
detection converges to P_inf(q) = 1 - exp(-q kappa_star) and the designer's
objective to W_inf(kappa) = sum_l w_l mu_l (1 - exp(-q_l kappa)) - kappa c_low.
Everything here depends on the cost law only through c_low.

The designer-side quantities mirror the finite-n ones: kappa_tilde is the
root of Omega_inf(kappa) = sum_l w_l mu_l q_l exp(-q_l kappa) - c_low,
kappa_a caps what the budget can induce, kappa_0 what organic prizes alone
can induce, and an artificial bug helps iff kappa_tilde > kappa_0.
"""

from __future__ import annotations

import math

from . import _Record
from .design import (
    _FEAS_TOL,
    _best_single_bug,
    _bug_value,
    _design,
    _planted,
    _slice_coeffs,
    _vertices,
    designer_utility,
    solution_set,
    solve_c_a,
    solve_c_tilde,
)
from .game import (
    MAX_TABLE_N,
    GameConfig,
    PrizeSchedule,
    _check_prize_count,
    _entries,
    _is_int,
    solve_equilibrium,
)
from .rootfind import PINNED_LOW, bisect_decreasing


def _require_positive_floor(config: GameConfig) -> float:
    c_low = config.dist.c_low
    if not c_low > 0.0:
        raise ValueError(
            "public-program analysis requires c_low > 0 "
            "(free participation never settles otherwise)"
        )
    return c_low


def _p_inf(q: float, kappa: float) -> float:
    """P_inf(q; kappa) = 1 - exp(-q kappa), the limiting detection probability."""
    return -math.expm1(-q * kappa)


def psi_infinity(kappa: float, prizes: PrizeSchedule, config: GameConfig) -> float:
    """Limiting expected benefit of searching, per unit of the lowest cost."""
    c_low = _require_positive_floor(config)
    _check_prize_count(prizes, config)
    total = 0.0
    for prize, bug in zip(prizes.v, config.bugs):
        total += prize * bug.mu * _p_inf(bug.q, kappa)
    for art in prizes.artificial:
        total += art.v_a * _p_inf(art.q_a, kappa)
    return total / c_low


class PublicOutcome(_Record):
    """Limiting participation and the outcomes evaluated there."""

    kappa_star: float
    detect_inf: tuple[float, ...]  # per organic bug, 1 - exp(-q kappa_star)
    utility_inf: float
    trivial: bool  # True when no positive participation is sustainable


def solve_kappa_star(prizes: PrizeSchedule, config: GameConfig) -> PublicOutcome:
    """Largest fixed point of Psi_inf.

    Zero is always a fixed point; a positive one exists iff the slope at
    zero, (sum v mu q + sum v_a q_a) / c_low, exceeds 1. The trivial flag
    marks the no-participation case.
    """
    kappa = _kappa_root(prizes, config)
    return PublicOutcome(
        kappa_star=kappa,
        detect_inf=tuple(detect_prob_infinity(b.q, kappa) for b in config.bugs),
        utility_inf=utility_infinity(kappa, config),
        trivial=kappa == 0.0,
    )


def _kappa_root(prizes: PrizeSchedule, config: GameConfig) -> float:
    """kappa_star alone, without the outcomes evaluated there."""
    c_low = _require_positive_floor(config)
    # Psi_inf is concave with Psi_inf(0) = 0, so a positive fixed point needs
    # a slope s above 1 at zero. Since 1 - exp(-x) >= x - x^2/2, the gap
    # Psi_inf(k) - k is at least (s - 1) k - S2 k^2 / 2 with
    # S2 = (sum v mu q^2 + sum v_a q_a^2) / c_low <= s, as q <= 1. So the gap
    # is positive at (s - 1) / s, which brackets the positive root from below
    # however close s is to 1.
    slope = sum(v * mu * q for v, mu, q, _ in _entries(prizes, config))
    if not slope / c_low > 1.0:
        return 0.0

    def gap(k: float) -> float:
        return psi_infinity(k, prizes, config) - k

    root, where = bisect_decreasing(gap, (slope - c_low) / slope, prizes.total_posted() / c_low)
    return 0.0 if where == PINNED_LOW else root


def detect_prob_infinity(q: float, kappa: float) -> float:
    """P_inf(q) = 1 - exp(-q kappa)."""
    if not kappa >= 0.0:
        raise ValueError("kappa must be >= 0")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    return _p_inf(q, kappa)


def utility_infinity(kappa: float, config: GameConfig) -> float:
    """W_inf(kappa): limiting designer objective at participation kappa."""
    c_low = _require_positive_floor(config)
    if not kappa >= 0.0:
        raise ValueError("kappa must be >= 0")
    return _bug_value(config, lambda q: _p_inf(q, kappa)) - kappa * c_low


def solve_kappa_tilde(config: GameConfig) -> float:
    """Root of Omega_inf, the unconstrained optimal participation.

    Returns 0 when sum_l w_l mu_l q_l < c_low (prizes can never compensate
    the cheapest searcher; optimize_public reports the violation).
    """
    c_low = _require_positive_floor(config)
    s = _bug_value(config, lambda q: q)  # sum w mu q, the slope of the bug value at 0
    if s <= c_low:
        return 0.0

    def g(k: float) -> float:
        return sum(b.w * b.mu * b.q * math.exp(-b.q * k) for b in config.bugs) - c_low

    q_min = min(b.q for b in config.bugs if b.w * b.mu * b.q > 0.0)
    upper = math.log(s / c_low) / q_min
    return bisect_decreasing(g, 0.0, upper)[0]


def solve_kappa_a(budget: float, config: GameConfig) -> float:
    """Highest inducible participation: kappa_star with the whole budget on
    an artificial bug with q_a = 1, the fixed point of
    budget (1 - exp(-kappa)) / c_low; 0 when budget / c_low is at most 1.
    Non-decreasing in budget."""
    _require_positive_floor(config)
    if not budget > 0.0:
        raise ValueError("budget must be > 0")
    return _kappa_root(_planted(config, budget), config)


class Kappa0Breakdown(_Record):
    """Best limiting participation reachable with organic prizes only, and per-bug detail."""

    kappa_0: float
    per_bug: tuple[float, ...]
    best_bug: int


def solve_kappa0(budget: float, config: GameConfig) -> Kappa0Breakdown:
    """Per-bug fixed points of budget mu_l (1 - exp(-q_l kappa)) / c_low."""
    _require_positive_floor(config)
    return _best_single_bug(
        Kappa0Breakdown, budget, config, lambda prizes: _kappa_root(prizes, config)
    )


class PublicDesignReport(_Record):
    """Solved limit designer problem; the verdict fields read as in
    ``design.DesignReport``, with kappa for c and W_inf for W."""

    kappa_tilde: float
    kappa_a: float
    kappa_0: float
    kappa_hat_star: float
    beneficial: bool
    marginal: bool
    margin: float
    gain: float
    prizes: PrizeSchedule
    utility_at_optimum: float
    per_bug_kappa: tuple[float, ...]
    best_bug: int
    assumption_notes: tuple[str, ...]


def optimize_public(config: GameConfig) -> PublicDesignReport:
    """Optimal limiting participation min(kappa_tilde, kappa_a) and prizes.

    This is the finite-n designer's algorithm (``design._design``) on the
    limit stage model: all budget on a q_a = 1 artificial bug when
    beneficial, otherwise the single best organic bug scaled to the target.
    Violations of the standing assumptions (budget >= c_low,
    sum w mu q >= c_low) are reported, not clamped away.
    """
    c_low = _require_positive_floor(config)
    notes = []
    if config.budget < c_low:
        notes.append("budget below c_low: full budget cannot move the cheapest agent")
    if _bug_value(config, lambda q: q) < c_low:
        notes.append("sum of w*mu*q below c_low: searching can never be compensated")

    kt = solve_kappa_tilde(config)
    ka = solve_kappa_a(config.budget, config)
    k0 = solve_kappa0(config.budget, config)
    k_star, schedule, verdict = _design(
        config, kt, ka, k0, lambda k: (k * c_low, k, lambda q: _p_inf(q, k)), utility_infinity
    )
    return PublicDesignReport(
        kappa_tilde=kt,
        kappa_a=ka,
        kappa_0=k0.kappa_0,
        kappa_hat_star=k_star,
        prizes=schedule,
        per_bug_kappa=k0.per_bug,
        best_bug=k0.best_bug,
        assumption_notes=tuple(notes),
        **verdict,
    )


def convergence_table(
    config: GameConfig, prizes: PrizeSchedule, n_list: list[int]
) -> list[dict]:
    """Finite-n equilibria next to their limit, one row per n.

    Columns: n, c_n, n_F_c_n, kappa_star, P_n_bug_<l>, W_n, and the approach
    diagnostic abs_nF_minus_kappa = |n F(c_n) - kappa_star|.
    """
    _require_positive_floor(config)
    if any(n < 1 or n > MAX_TABLE_N for n in n_list):
        raise ValueError(f"n values must lie in [1, {MAX_TABLE_N}]")
    kappa_star = _kappa_root(prizes, config)
    rows = []
    for n in n_list:
        cfg_n = config.with_n(int(n))
        outcome = solve_equilibrium(prizes, cfg_n)
        c_n = outcome.c_star
        nf = n * outcome.participation
        row = {
            "n": int(n),
            "c_n": c_n,
            "n_F_c_n": nf,
            "kappa_star": kappa_star,
        }
        for l, p_n in enumerate(outcome.detect_organic_conditional, start=1):
            row[f"P_n_bug_{l}"] = p_n
        row["W_n"] = designer_utility(c_n, cfg_n)
        row["abs_nF_minus_kappa"] = abs(nf - kappa_star)
        rows.append(row)
    return rows


class SetDistanceResult(_Record):
    """Hausdorff distance between the finite-n and limiting optimal prize slices at q_a."""

    distance: float
    feasible: bool
    n: int
    q_a: float


def solution_set_distance(config: GameConfig, n: int, q_a: float) -> SetDistanceResult:
    """Hausdorff distance between the finite-n and limiting optimal prize
    sets, sliced at a fixed artificial complexity q_a.

    The finite-n slice is the budget-feasible part of the hyperplane whose
    coefficients are mu_l Phi(c*; q_l) and Phi(c*; q_a), with right-hand side
    the optimal finite-n threshold c* = min(c_tilde, c_a); the limit slice
    uses mu_l (1-exp(-q_l k))/c_low and (1-exp(-q_a k))/c_low, with
    right-hand side the optimal limiting participation k = min(kappa_tilde,
    kappa_a) (``_optimal_levels``). Both slices are convex polytopes and the
    distance to a convex set is convex, so each directed supremum sits at a
    vertex: the result is the largest distance from a vertex of one slice to
    its projection onto the other (``_projection_distance``, O(L) memory).
    A slice has at most (L+1)(L+2)/2 vertices, so a distance takes O(L^2)
    projections and O(L^2) memory. An n that is not an integer >= 2 raises
    ValueError.
    """
    c_low = _require_positive_floor(config)
    if not (_is_int(n) and n >= 2):
        raise ValueError("n must be an integer >= 2")
    if not 0.0 < q_a <= 1.0:
        raise ValueError("q_a must lie in (0, 1] for a meaningful slice")

    budget = config.budget
    cfg_n = config.with_n(n)
    c_star, k_star = _optimal_levels(cfg_n)
    finite_set = solution_set(cfg_n, c_star, q_a)
    coeffs_inf = tuple(a / c_low for a in _slice_coeffs(config, lambda q: _p_inf(q, k_star), q_a))
    vertices_inf = _vertices(coeffs_inf, k_star, budget)
    if not finite_set.feasible or not vertices_inf:
        return SetDistanceResult(math.nan, False, n, q_a)
    # a projection divides by sums of squared coefficients
    if not all(0.0 < a * a < math.inf for a in finite_set.coeffs + coeffs_inf):
        raise ValueError("a slice coefficient squares out of float range")
    distance = max(
        max(_projection_distance(v, coeffs_inf, k_star, budget) for v in finite_set.vertices),
        max(_projection_distance(v, finite_set.coeffs, c_star, budget) for v in vertices_inf),
    )
    return SetDistanceResult(distance, True, n, q_a)


def _optimal_levels(config: GameConfig) -> tuple[float, float]:
    """min(c_tilde, c_a) and min(kappa_tilde, kappa_a) from the designers' own
    four solves: optimize(config).c_hat_star and
    optimize_public(config).kappa_hat_star, bit for bit."""
    c_star = min(solve_c_tilde(config), solve_c_a(config.budget, config))
    k_star = min(solve_kappa_tilde(config), solve_kappa_a(config.budget, config))
    return c_star, k_star


def _projection_distance(p, coeffs, rhs: float, budget: float) -> float:
    """Distance from p to {coeffs . x = rhs, x >= 0, sum(x) <= budget}, for
    positive coeffs and rhs whose squares are finite and positive.

    By the KKT conditions the projection is x_i = max(p_i - lam a_i - nu, 0)
    with nu >= 0 (Boyd and Vandenberghe, Convex Optimization, 2004, 5.5.3).
    At nu = 0 the free set (the i with x_i > 0) comes from one sort of the
    breakpoints p_i / a_i of a . x in lam (Condat, Math. Programming 158,
    2016); if that point breaks the budget, ``_budget_walk`` finds it at
    nu > 0. O(L log L) time, O(L) a step of the walk; O(L) memory.
    """
    dim = len(coeffs)
    order = sorted(range(dim), key=lambda i: p[i] / coeffs[i], reverse=True)
    ap, aa = -rhs, 0.0
    for j, i in enumerate(order, start=1):
        ap += coeffs[i] * p[i]
        aa += coeffs[i] * coeffs[i]
        if j == dim or ap / aa >= p[order[j]] / coeffs[order[j]]:
            break
    free = sorted(order[:j])
    step = _cramer(p, coeffs, rhs, budget, free, False)
    if step is None:
        free = _budget_walk(p, coeffs, rhs, budget, free)
        step = _cramer(p, coeffs, rhs, budget, free, True) or _orthogonal(p, coeffs, rhs, budget, free)
    pinned = sorted(set(range(dim)).difference(free))
    return math.sqrt(sum(p[i] * p[i] for i in pinned) + sum(s * s for s in step))


def _system(p, coeffs, rhs: float, budget: float, free: list[int]) -> tuple:
    """The two-row system on the free indices, summed in ascending order:
    their count k, sum of squares aa and sum a1, a . p - rhs and
    sum(p) - budget over them, the determinant aa k - a1^2, and whether the
    budget row can bind (the rows are not nearly parallel)."""
    k, fc, fp = len(free), [coeffs[i] for i in free], [p[i] for i in free]
    aa, a1 = sum([a * a for a in fc]), sum(fc)
    det = aa * k - a1 * a1
    ap = sum([a * x for a, x in zip(fc, fp)]) - rhs
    return k, aa, a1, ap, sum(fp) - budget, det, det > 1e-12 * aa * k


def _cramer(p, coeffs, rhs: float, budget: float, free: list[int], binding: bool) -> list | None:
    """p - x on ``free`` for the point x that is 0 off ``free`` and meets
    coeffs . x = rhs, and sum(x) = budget as well if ``binding`` and the rows
    can bind, by Cramer's rule, as a zero-pattern enumeration solves each
    pattern, bit for bit; None when x breaks x >= 0 or sum(x) <= budget by
    more than ``_FEAS_TOL`` times the budget."""
    k, aa, a1, ap, p1, det, binds = _system(p, coeffs, rhs, budget, free)
    if binding and binds:
        lam, nu = (ap * k - a1 * p1) / det, (aa * p1 - a1 * ap) / det
    else:
        lam, nu = ap / aa, 0.0
    step = [lam * coeffs[i] + nu for i in free]
    x = [p[i] - s for i, s in zip(free, step)]
    if min(x) < -_FEAS_TOL * budget or sum(x) > budget + _FEAS_TOL * budget:
        return None
    return step


def _orthogonal(p, coeffs, rhs: float, budget: float, free: list[int]) -> list:
    """``_cramer``'s binding step where rounding breaks its slack (rows nearly
    parallel), from the orthogonal rows 1 and a - mean(a) on ``free``."""
    mean = sum(coeffs[i] for i in free) / len(free)
    d = [coeffs[i] - mean for i in free]
    nu = (sum(p[i] for i in free) - budget) / len(free)
    lam = (sum(di * p[i] for di, i in zip(d, free)) - rhs + mean * budget) / sum(di * di for di in d)
    return [nu + lam * di for di in d]


def _budget_walk(p, coeffs, rhs: float, budget: float, free: list[int]) -> list[int]:
    """The free set of the projection, from the free set at nu = 0 of a
    point that spends more than the budget.

    On a free set, lam = (ap - nu a1) / aa keeps a . x = rhs, so each x_i
    is linear in nu with slope a_i a1 / aa - 1 and sum(x) falls with slope
    k - a1^2 / aa >= 0. The walk raises nu to the next breakpoint, where a
    free x_i falls to 0 or a pinned one rises to 0, and flips those indices,
    until the root of sum(x) = budget comes first. A free set holds on one
    interval of nu and an index flips at most once at one nu: the walk ends.
    """
    inside = [i in free for i in range(len(coeffs))]
    nu, flipped = 0.0, set()
    while True:
        k, aa, a1, ap, p1, det, binds = _system(p, coeffs, rhs, budget, free)
        root = (aa * p1 - a1 * ap) / det if binds else math.inf
        rp = ap / aa
        at, movers = math.inf, []
        for i, (a, x, f) in enumerate(zip(coeffs, p, inside)):
            slope = a * a1 / aa - 1.0
            if slope == 0.0 or (slope < 0.0) != f or i in flipped:
                continue
            # a breakpoint that rounding puts before nu is taken at nu
            crossing = max(nu, (a * rp - x) / slope)
            if crossing < at:
                at, movers = crossing, [i]
            elif crossing == at:
                movers.append(i)
        if root <= at:
            return free
        flipped = flipped.union(movers) if at == nu else set(movers)
        nu = at
        for i in movers:
            inside[i] = not inside[i]
        free = [i for i, f in enumerate(inside) if f]
