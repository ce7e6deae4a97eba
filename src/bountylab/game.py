"""Second-stage crowdsearch game: win probabilities and the equilibrium threshold.

Agents privately draw a search cost from a common distribution and search
iff the cost is at most a threshold. With rivals at threshold ``c_hat``:

* ``detect_prob``       P(c_hat; q) = 1 - (1 - q F(c_hat))**n, the chance a
                        bug of find-probability q is found by someone;
* ``win_prob_phi``      Phi(c_hat; q) = P / (n F(c_hat)), the chance a given
                        searching agent wins that bug's prize (conditional on
                        the bug existing), with Phi -> q as F -> 0;
* ``expected_benefit_psi``  a searcher's total expected prize money, the sum
                        of v * mu * Phi over the posted entries.

An artificial entry (v_a, q_a) is a bug with mu = 1 and w = 0: the designer
plants it, so it exists for sure, and finding it is worth nothing to the
designer. Every closed form written for organic bugs covers it with those
values, and ``_entries`` lists the posted entries that way.

The symmetric equilibrium threshold is the fixed point of Psi, pinned at an
end of the cost support when Psi never crosses the identity (solve_equilibrium).
"""

from __future__ import annotations

import math
import sys

from . import _Record
from .costs import CostDistribution
from .rootfind import bisect_decreasing

# Phi switches to its analytic limit q only where q F is below the smallest
# normal float, avoiding the 0/0 in P / (n F); above it P / (n F) is exact to
# rounding. A constant, since an attribute lookup per Phi call is measurable.
_TINY = sys.float_info.min

# Largest n of a sweep over crowd sizes: asymptotic.convergence_table and the
# CLI's n lists. It lives here, not in asymptotic, so the CLI can check a config
# without executing asymptotic.
MAX_TABLE_N = 10**6


class OrganicBug(_Record):
    """A real vulnerability: existence probability, find probability, value."""

    mu: float
    q: float
    w: float

    def __post_init__(self) -> None:
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        if not 0.0 <= self.w < math.inf:
            raise ValueError("w must be finite and >= 0")


class ArtificialBugDesign(_Record):
    """A planted bug: prize and find probability. (0, 0) encodes 'none'."""

    v_a: float
    q_a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.v_a < math.inf:
            raise ValueError("v_a must be finite and >= 0")
        if not 0.0 <= self.q_a <= 1.0:
            raise ValueError("q_a must lie in [0, 1]")


class PrizeSchedule(_Record):
    """Posted prizes: one per organic bug plus any artificial entries."""

    v: tuple[float, ...]
    artificial: tuple[ArtificialBugDesign, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "v", tuple(float(x) for x in self.v))
        object.__setattr__(self, "artificial", tuple(self.artificial))
        if any(x < 0.0 or not math.isfinite(x) for x in self.v):
            raise ValueError("organic prizes must be finite and >= 0")

    @classmethod
    def organic_only(cls, v) -> "PrizeSchedule":
        return cls(v=tuple(v), artificial=())

    @classmethod
    def zero(cls, n_bugs: int) -> "PrizeSchedule":
        return cls(v=(0.0,) * n_bugs, artificial=())

    def total_posted(self) -> float:
        return sum(self.v) + sum(a.v_a for a in self.artificial)


class GameConfig(_Record):
    """One crowdsearch instance: agents, bugs, cost law, prize budget."""

    n: int
    bugs: tuple[OrganicBug, ...]
    dist: CostDistribution
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bugs", tuple(self.bugs))
        if not (_is_int(self.n) and self.n >= 1):
            raise ValueError("n must be an integer >= 1")
        if self.n > sys.float_info.max:  # the closed forms take n as a float
            raise ValueError(f"n must be at most {sys.float_info.max:g}")
        if len(self.bugs) == 0:
            raise ValueError("L >= 1 required: at least one organic bug")
        if not 0.0 < self.budget < math.inf:
            raise ValueError("budget must be finite and > 0")

    def with_n(self, n: int) -> "GameConfig":
        return GameConfig(n=n, bugs=self.bugs, dist=self.dist, budget=self.budget)


class EquilibriumOutcome(_Record):
    """Solved second stage at a prize schedule.

    ``detect_organic_unconditional`` folds in the existence probability mu;
    ``detect_organic_conditional`` does not. ``expected_payout`` equals
    n F(c_star) c_star at interior and pinned-low outcomes (at pinned-high
    outcomes the marginal searcher strictly profits and the identity becomes
    an inequality).
    """

    c_star: float
    boundary: str
    participation: float
    detect_organic_conditional: tuple[float, ...]
    detect_organic_unconditional: tuple[float, ...]
    detect_artificial: tuple[float, ...]
    expected_payout: float
    designer_utility: float


def _log_miss(c: float, F: float, q: float, m: int, dist: CostDistribution) -> float:
    """m log(1 - q F): the log-chance that m searchers at threshold c, where
    F = F(c), all miss a bug of find probability q. Above q F = 1/2 the base
    is taken as (1 - q) + q sf(c), an exact rewrite of 1 - q F that keeps its
    digits where F rounds to 1."""
    x = q * F
    if x <= 0.5:
        return m * math.log1p(-x)
    base = (1.0 - q) + q * dist.sf(c)
    if base <= 0.0:
        return -math.inf if m else 0.0
    return m * math.log(base)


def _detect(c: float, F: float, q: float, n: int, dist: CostDistribution) -> float:
    return -math.expm1(_log_miss(c, F, q, n, dist))


def _phi(c: float, F: float, q: float, n: int, dist: CostDistribution) -> float:
    if q * F < _TINY:
        return q
    return _detect(c, F, q, n, dist) / (n * F)


def win_prob_phi(c_hat: float, q: float, n: int, dist: CostDistribution) -> float:
    """Phi(c_hat; q): a searcher's chance of winning the prize for a bug
    with find probability q, conditional on the bug existing, against n - 1
    rivals at threshold c_hat. Equals q when nobody else participates."""
    _check_q_n(q, n)
    return _phi(c_hat, dist.cdf(c_hat), q, n, dist)


def detect_prob(c_hat: float, q: float, n: int, dist: CostDistribution) -> float:
    """P(c_hat; q) = 1 - (1 - q F(c_hat))**n, evaluated stably."""
    _check_q_n(q, n)
    return _detect(c_hat, dist.cdf(c_hat), q, n, dist)


def _check_q_n(q: float, n: int) -> None:
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if not (_is_int(n) and n >= 1):
        raise ValueError("n must be an integer >= 1")


def _is_int(x) -> bool:
    """An int that is not a bool: True would otherwise pass as n = 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_prize_count(prizes: PrizeSchedule, config: GameConfig) -> None:
    if len(prizes.v) != len(config.bugs):
        raise ValueError(
            f"prize list length {len(prizes.v)} != bug count {len(config.bugs)}"
        )


def _entries(prizes: PrizeSchedule, config: GameConfig) -> list[tuple[float, float, float, float]]:
    """(prize, mu, q, w) per posted entry: the organic bugs in order, then
    each artificial entry as a bug with mu = 1 and w = 0."""
    _check_prize_count(prizes, config)
    entries = [(v, bug.mu, bug.q, bug.w) for v, bug in zip(prizes.v, config.bugs)]
    return entries + [(a.v_a, 1.0, a.q_a, 0.0) for a in prizes.artificial]


def expected_benefit_psi(c_hat: float, prizes: PrizeSchedule, config: GameConfig) -> float:
    """Psi(c_hat): expected prize winnings of a searching agent."""
    _check_prize_count(prizes, config)
    F = config.dist.cdf(c_hat)
    total = 0.0
    for prize, bug in zip(prizes.v, config.bugs):
        total += prize * bug.mu * _phi(c_hat, F, bug.q, config.n, config.dist)
    for art in prizes.artificial:
        total += art.v_a * _phi(c_hat, F, art.q_a, config.n, config.dist)
    return total


def solve_equilibrium(prizes: PrizeSchedule, config: GameConfig) -> EquilibriumOutcome:
    """Symmetric equilibrium threshold and the stage outcomes evaluated there.

    Psi - id is continuous and strictly decreasing wherever F > 0, so the
    three cases are: pinned at c_low when Psi(c_low) <= c_low, pinned at a
    finite c_high when Psi there still exceeds it, and otherwise the unique
    interior fixed point, which on an unbounded support always exists.
    """
    c_star, boundary = _threshold(prizes, config)
    return EquilibriumOutcome(c_star, boundary, *_stage_at(c_star, prizes, config))


def _threshold(prizes: PrizeSchedule, config: GameConfig) -> tuple[float, str]:
    """The equilibrium threshold and where it lies, without the stage outcomes."""

    def gap(c: float) -> float:
        return expected_benefit_psi(c, prizes, config) - c

    return bisect_decreasing(gap, config.dist.c_low, config.dist.c_high)


def _stage_at(c_hat: float, prizes: PrizeSchedule, config: GameConfig) -> tuple:
    """The fields of EquilibriumOutcome after c_star and boundary, in order:
    participation, detection, expected payout and designer utility when
    every agent searches at threshold c_hat."""
    n, dist = config.n, config.dist
    F = dist.cdf(c_hat)
    entries = _entries(prizes, config)
    detect = [_detect(c_hat, F, q, n, dist) for _, _, q, _ in entries]
    found = [mu * d for (_, mu, _, _), d in zip(entries, detect)]
    payout = sum(v * f for (v, _, _, _), f in zip(entries, found))
    value = sum(w * f for (_, _, _, w), f in zip(entries, found))
    L = len(config.bugs)
    return F, tuple(detect[:L]), tuple(found[:L]), tuple(detect[L:]), payout, value - payout


def _found_variance(c_hat: float, prizes: PrizeSchedule, config: GameConfig, weights) -> float:
    """Var(sum_j weights_j X_j) when every agent searches at threshold c_hat,
    where X_j is 1 when bug j (the organic bugs, then the artificial entries)
    exists and is found.

    Agents search and find independently, so with M_j = (1 - q_j F)^n and
    M_jk = (1 - (q_j + q_k - q_j q_k) F)^n, P(j and k found) is
    mu_j mu_k (1 - M_j - M_k + M_jk) for j != k, with mu = 1 for artificial
    entries, and Cov(X_j, X_k) = mu_j mu_k (M_jk - M_j M_k). That difference
    is taken as M_j M_k expm1(log M_jk - log M_j - log M_k), which keeps its
    digits where every M is close to 1.
    """
    n, dist = config.n, config.dist
    F = dist.cdf(c_hat)
    bugs = [(mu, q) for _, mu, q, _ in _entries(prizes, config)]
    logs = [_log_miss(c_hat, F, q, n, dist) for _, q in bugs]
    total = 0.0
    for j, ((mu_j, q_j), l_j, w_j) in enumerate(zip(bugs, logs, weights)):
        found = mu_j * -math.expm1(l_j)
        total += w_j * w_j * found * ((1.0 - mu_j) + mu_j * math.exp(l_j))
        for (mu_k, q_k), l_k, w_k in zip(bugs[j + 1 :], logs[j + 1 :], weights[j + 1 :]):
            l_jk = _log_miss(c_hat, F, q_j + q_k - q_j * q_k, n, dist)
            joint = math.exp(l_j + l_k)
            excess = joint * math.expm1(l_jk - l_j - l_k) if joint > 0.0 else math.exp(l_jk)
            total += 2.0 * w_j * w_k * mu_j * mu_k * excess
    return max(total, 0.0)
