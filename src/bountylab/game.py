"""Second-stage crowdsearch game: win probabilities and the equilibrium threshold.

Agents privately draw a search cost from a common distribution and search
iff the cost is at most a threshold. With rivals at threshold ``c_hat``:

* ``detect_prob``       P(c_hat; q) = 1 - (1 - q F(c_hat))**n, the chance a
                        bug of find-probability q is found by someone;
* ``win_prob_phi``      Phi(c_hat; q) = P / (n F(c_hat)), the chance a given
                        searching agent wins that bug's prize (conditional on
                        the bug existing), with Phi -> q as F -> 0;
* ``expected_benefit_psi``  a searcher's total expected prize money, the sum
                        of v * mu * Phi over organic bugs plus v_a * Phi over
                        artificial ones.

The symmetric equilibrium threshold is the fixed point of Psi, pinned at an
end of the cost support when Psi never crosses the identity (solve_equilibrium).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

from .costs import CostDistribution
from .rootfind import bisect_decreasing

# Below this participation level Phi switches to its analytic limit q,
# avoiding the 0/0 in P / (n F).
_F_FLOOR = 1e-14

# Largest n for which the combinatorial oracle is allowed to run.
ORACLE_MAX_N = 25


@dataclass(frozen=True)
class OrganicBug:
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


@dataclass(frozen=True)
class ArtificialBugDesign:
    """A planted bug: prize and find probability. (0, 0) encodes 'none'."""

    v_a: float
    q_a: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.v_a < math.inf:
            raise ValueError("v_a must be finite and >= 0")
        if not 0.0 <= self.q_a <= 1.0:
            raise ValueError("q_a must lie in [0, 1]")


@dataclass(frozen=True)
class PrizeSchedule:
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


@dataclass(frozen=True)
class GameConfig:
    """One crowdsearch instance: agents, bugs, cost law, prize budget."""

    n: int
    bugs: tuple[OrganicBug, ...]
    dist: CostDistribution
    budget: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "bugs", tuple(self.bugs))
        if not (_is_int(self.n) and self.n >= 1):
            raise ValueError("n must be an integer >= 1")
        if len(self.bugs) == 0:
            raise ValueError("L >= 1 required: at least one organic bug")
        if not 0.0 < self.budget < math.inf:
            raise ValueError("budget must be finite and > 0")

    def with_n(self, n: int) -> "GameConfig":
        return GameConfig(n=n, bugs=self.bugs, dist=self.dist, budget=self.budget)


@dataclass(frozen=True)
class EquilibriumOutcome:
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
    if q <= 0.0:
        return 0.0
    if F < _F_FLOOR:
        return q
    return _detect(c, F, q, n, dist) / (n * F)


def win_prob_phi(c_hat: float, q: float, n: int, dist: CostDistribution) -> float:
    """Phi(c_hat; q): a searcher's chance of winning the prize for a bug
    with find probability q, conditional on the bug existing, against n - 1
    rivals at threshold c_hat. Equals q when nobody else participates."""
    _check_q_n(q, n)
    return _phi(c_hat, dist.cdf(c_hat), q, n, dist)


def win_prob_phi_oracle(c_hat: float, q: float, n: int, dist: CostDistribution) -> float:
    """Direct enumeration oracle for Phi.

    Sums over the number k of the n - 1 rivals that participate and the
    number t of those that also find the bug; the prize then splits uniformly
    among the t + 1 finders. Kept independent of the closed form on purpose.
    """
    _check_q_n(q, n)
    if n > ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}")
    F = dist.cdf(c_hat)
    total = 0.0
    for k in range(n):
        weight = comb(n - 1, k) * F**k * (1.0 - F) ** (n - 1 - k)
        inner = sum(
            comb(k, t) * q**t * (1.0 - q) ** (k - t) / (t + 1) for t in range(k + 1)
        )
        total += weight * inner
    return q * total


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

    def gap(c: float) -> float:
        return expected_benefit_psi(c, prizes, config) - c

    c_star, boundary = bisect_decreasing(gap, config.dist.c_low, config.dist.c_high)
    return EquilibriumOutcome(c_star, boundary, **_stage_at(c_star, prizes, config)._asdict())


class _Stage(NamedTuple):
    """The stage closed forms at one threshold, named as in EquilibriumOutcome."""

    participation: float
    detect_organic_conditional: tuple[float, ...]
    detect_organic_unconditional: tuple[float, ...]
    detect_artificial: tuple[float, ...]
    expected_payout: float
    designer_utility: float


def _stage_at(c_hat: float, prizes: PrizeSchedule, config: GameConfig) -> _Stage:
    """Participation, detection, expected payout and designer utility when
    every agent searches at threshold c_hat."""
    n, dist = config.n, config.dist
    F = dist.cdf(c_hat)
    det_cond = tuple(_detect(c_hat, F, bug.q, n, dist) for bug in config.bugs)
    det_uncond = tuple(bug.mu * d for bug, d in zip(config.bugs, det_cond))
    det_art = tuple(_detect(c_hat, F, a.q_a, n, dist) for a in prizes.artificial)
    payout = sum(p * d for p, d in zip(prizes.v, det_uncond))
    payout += sum(a.v_a * d for a, d in zip(prizes.artificial, det_art))
    value = sum(bug.w * d for bug, d in zip(config.bugs, det_uncond))
    return _Stage(F, det_cond, det_uncond, det_art, payout, value - payout)
