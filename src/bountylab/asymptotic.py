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
    solve_c_tilde,
)
from .game import (
    MAX_TABLE_N,
    GameConfig,
    PrizeSchedule,
    _check_prize_count,
    _entries,
    _is_int,
    _threshold,
    _threshold_problem,
    solve_equilibrium,
)
from .rootfind import PINNED_LOW, REL_TOL, bisect_decreasing

# A set distance tries 2^(L+1) zero patterns per slice. On a 2-vCPU Xeon, one
# distance with 25 / 36 / 48 vertices took 0.07 / 0.44 / 2.4 s and a tracemalloc
# peak of 0.4 / 1.9 / 8.9 MB at L = 8 / 10 / 12 organic bugs; at that growth a
# 20-bug slice would need gigabytes and hours.
MAX_SLICE_BUGS = 10


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
    problem = _kappa_problem(prizes, config)
    if problem is None:
        return 0.0
    root, where = bisect_decreasing(*problem)
    return 0.0 if where == PINNED_LOW else root


def _kappa_problem(prizes: PrizeSchedule, config: GameConfig) -> tuple | None:
    """(gap, lo, hi) that ``_kappa_root`` hands the finder: Psi_inf - id on a
    bracket of its positive root; None when the slope at zero is at most 1,
    so that zero is the only fixed point."""
    c_low = _require_positive_floor(config)
    # Psi_inf is concave with Psi_inf(0) = 0, so a positive fixed point needs
    # a slope s above 1 at zero. Since 1 - exp(-x) >= x - x^2/2, the gap
    # Psi_inf(k) - k is at least (s - 1) k - S2 k^2 / 2 with
    # S2 = (sum v mu q^2 + sum v_a q_a^2) / c_low <= s, as q <= 1. So the gap
    # is positive at (s - 1) / s, which brackets the positive root from below
    # however close s is to 1.
    slope = sum(v * mu * q for v, mu, q, _ in _entries(prizes, config))
    if not slope / c_low > 1.0:
        return None

    def gap(k: float) -> float:
        return psi_infinity(k, prizes, config) - k

    return gap, (slope - c_low) / slope, prizes.total_posted() / c_low


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
    kappa_a). Those two levels take two root solves where the budget cap is
    slack and four where it binds (see ``_optimal_levels``), and nothing else
    of either designer is solved. Both slices are convex polytopes and the
    distance to a convex set is a convex function, so each directed supremum
    sits at a vertex: the result is exact, the largest distance from a
    vertex of one slice to its projection onto the other. A slice has at
    most (L+1)(L+2)/2 vertices. A projection tries every pattern of zero
    coordinates (2^(L+1) of them) with the budget row slack and binding; the
    terms of a pattern that depend only on the slice are set up once per
    slice, leaving O(L) work per pattern and vertex. The cost grows as
    L^3 2^L, the memory as L 2^L, so more than ``MAX_SLICE_BUGS`` organic
    bugs raise ValueError, as does an n that is not an integer >= 2.
    """
    c_low = _require_positive_floor(config)
    if not (_is_int(n) and n >= 2):
        raise ValueError("n must be an integer >= 2")
    if not 0.0 < q_a <= 1.0:
        raise ValueError("q_a must lie in (0, 1] for a meaningful slice")
    if len(config.bugs) > MAX_SLICE_BUGS:
        raise ValueError(f"a slice takes at most {MAX_SLICE_BUGS} organic bugs")

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
    onto_inf = _zero_patterns(coeffs_inf)
    onto_finite = _zero_patterns(finite_set.coeffs)
    distance = max(
        max(_projection_distance(v, onto_inf, k_star, budget) for v in finite_set.vertices),
        max(_projection_distance(v, onto_finite, c_star, budget) for v in vertices_inf),
    )
    return SetDistanceResult(distance, True, n, q_a)


def _optimal_levels(config: GameConfig) -> tuple[float, float]:
    """min(c_tilde, c_a) and min(kappa_tilde, kappa_a): the levels
    ``design._design`` returns for the finite-n and for the limit stage
    model, that is optimize(config).c_hat_star and
    optimize_public(config).kappa_hat_star, bit for bit. The free levels
    take a root solve each; a cap (the whole budget on one q_a = 1 planted
    bug) is solved only where one evaluation of its gap does not show it
    slack, so a budget that binds costs four solves and one that does not
    costs two."""
    planted = _planted(config, config.budget)
    c_star = _capped(
        solve_c_tilde(config), _threshold_problem(planted, config), lambda: _threshold(planted, config)[0]
    )
    k_star = _capped(
        solve_kappa_tilde(config), _kappa_problem(planted, config), lambda: _kappa_root(planted, config)
    )
    return c_star, k_star


# A cap is taken as slack only if its gap, read this far past the free level
# (relative to it), is positive by this much (relative to the point read): a
# few finder tolerances, so that a tie falls back to the solve.
_SLACK_GUARD = 4.0 * REL_TOL


def _capped(level: float, problem: tuple | None, solve_cap) -> float:
    """min(level, solve_cap()) for a level >= 0, where ``problem`` is the
    (gap, lo, hi) that the cap's finder is handed, or None when the cap is 0.

    The cap is not solved when its gap reads above ``_SLACK_GUARD`` x at
    x = level (1 + _SLACK_GUARD), or at lo if that is higher, below hi. Both
    gaps (Psi - id, decreasing; Psi_inf - id, concave and 0 at 0) evaluate
    to within a few ulps of x there, so every point up to x that the finder
    tries reads positive and its last bracket, at most ``REL_TOL`` wide, lies
    above the level: the cap exceeds the level, and min() returns the level.
    """
    if problem is not None:
        gap, lo, hi = problem
        x = max(level + _SLACK_GUARD * level + 4.0 * math.ulp(0.0), lo)
        if x < hi and gap(x) > _SLACK_GUARD * x:
            return level
    return min(level, solve_cap())


def _zero_patterns(coeffs) -> list[tuple]:
    """The slice-only terms of each choice of coordinates pinned at 0, for
    ``_projection_distance``: the free and the pinned indices, the free
    coefficients, their count k, sum of squares aa and sum a1, the
    determinant aa k - a1^2 of the two-row system, and whether the budget
    row can bind (the rows are not nearly parallel)."""
    dim = len(coeffs)
    patterns = []
    for mask in range(1, 1 << dim):
        free = [i for i in range(dim) if mask >> i & 1]
        k = len(free)
        aa = sum(coeffs[i] * coeffs[i] for i in free)
        a1 = sum(coeffs[i] for i in free)
        det = aa * k - a1 * a1
        pinned = [i for i in range(dim) if not mask >> i & 1]
        fc = [coeffs[i] for i in free]
        # rows nearly parallel: the binding case is empty or already the slack one
        patterns.append((free, pinned, fc, k, aa, a1, det, det > 1e-12 * aa * k))
    return patterns


def _projection_distance(p, patterns, rhs: float, budget: float) -> float:
    """Distance from p to {coeffs . x = rhs, x >= 0, sum(x) <= budget}, for
    positive coeffs and rhs, given ``_zero_patterns(coeffs)``.

    Each choice of coordinates pinned at 0, with the budget row slack or
    binding, is an equality-constrained QP whose one or two multipliers
    solve by Cramer's rule; the projection is the nearest candidate that
    satisfies every constraint, to a slack of ``_FEAS_TOL`` times the budget.
    A candidate's squared distance is formed first, and only one nearer than
    the best so far is tested for feasibility; a pattern whose pinned
    coordinates alone are no nearer is skipped.
    """
    tol = _FEAS_TOL * budget
    best = math.inf
    for free, pinned, fc, k, aa, a1, det, binds in patterns:
        sq_pinned = sum(p[i] * p[i] for i in pinned)
        if not sq_pinned < best:
            continue
        ap = sum(c * p[i] for c, i in zip(fc, free)) - rhs
        p1 = sum(p[i] for i in free) - budget
        cases = [(ap / aa, 0.0)]
        if binds:
            cases.append(((ap * k - a1 * p1) / det, (aa * p1 - a1 * ap) / det))
        for lam, nu in cases:
            step = [lam * c + nu for c in fc]
            d = sq_pinned + sum(s * s for s in step)
            if d < best:
                x = [p[i] - s for i, s in zip(free, step)]
                if min(x) >= -tol and sum(x) <= budget + tol:
                    best = d
    return math.sqrt(best)
