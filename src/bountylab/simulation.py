"""Seeded Monte Carlo runs of the second-stage game.

Each trial plays the game from the seat of one reference agent (agent 0)
against n - 1 rivals who search iff their cost is at most the strategy
threshold. Per trial it draws counts and agent 0's own outcomes only:

* whether agent 0 searches, u < F(threshold) (always, when pinned);
* the number of searching rivals, S ~ Bin(n - 1, F(threshold));
* per organic bug, whether it exists, u < mu (artificial entries always do);
* per organic or artificial bug, the number of rival finders,
  T | S ~ Bin(S, q), and whether agent 0 finds it, u < q;
* whether agent 0 wins a bug it found: the prize goes to one uniformly
  random finder, a chance of 1 / (T + 1), decided by the same uniform as
  u (T + 1) < q (given u < q, u / q is again uniform).

That is 1 + L + (L + K) uniforms (L + (L + K) when pinned) and at most
1 + (L + K) binomials a trial. Given S the finder counts of different bugs
are independent, so bugs are correlated only through shared participation,
as in the game. No array has an n axis: a chunk holds O(CHUNK (L + K))
numbers whatever n is. The draws use no closed form; estimates come with
standard errors and the matching closed forms, read off ``game``, so a
report row reads as a z-test.

Randomness is counter-based: trial chunks of fixed size draw from Philox
streams keyed by (seed, chunk index), so runs are reproducible bit-for-bit
and chunks could be evaluated in parallel without changing the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (
    GameConfig,
    PrizeSchedule,
    _check_prize_count,
    _is_int,
    _stage_at,
    expected_benefit_psi,
    solve_equilibrium,
    win_prob_phi,
)

CHUNK = 1 << 16


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int
    threshold: float

    def __post_init__(self) -> None:
        if not (_is_int(self.trials) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not (_is_int(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if not math.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


@dataclass(frozen=True)
class SimStat:
    name: str
    estimate: float
    std_error: float
    closed_form: float

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.estimate == self.closed_form else math.inf
        return (self.estimate - self.closed_form) / self.std_error


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    threshold: float
    detect_unconditional: tuple[SimStat, ...]  # per organic bug
    detect_conditional: tuple[SimStat, ...]  # per organic bug, given existence
    detect_artificial: tuple[SimStat, ...]
    win_organic: tuple[SimStat, ...]  # reference agent, given search & existence
    win_artificial: tuple[SimStat, ...]
    payout: SimStat
    utility: SimStat
    marginal_benefit: SimStat

    def rows(self) -> list[SimStat]:
        out = list(self.detect_unconditional)
        out += list(self.detect_conditional)
        out += list(self.detect_artificial)
        out += list(self.win_organic)
        out += list(self.win_artificial)
        out += [self.payout, self.utility, self.marginal_benefit]
        return out


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _chunks(sim: SimConfig):
    """(trial count, generator) per chunk, in the fixed (seed, index) order."""
    for index, start in enumerate(range(0, sim.trials, CHUNK)):
        yield min(CHUNK, sim.trials - start), _chunk_rng(sim.seed, index)


def _bug_arrays(prizes: PrizeSchedule, game: GameConfig):
    """mu and w per organic bug, then q and the prize per bug, organic
    bugs first and artificial entries after them, as arrays."""
    bugs, art = game.bugs, prizes.artificial
    columns = [
        [b.mu for b in bugs],
        [b.w for b in bugs],
        [b.q for b in bugs] + [a.q_a for a in art],
        list(prizes.v) + [a.v_a for a in art],
    ]
    return [np.array(c, dtype=float) for c in columns]


def _trials(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig, pinned: bool):
    """Per chunk, the outcomes of its trials as boolean arrays with trials
    along the last axis: searching (m,), then per bug, organic bugs first,
    exists, found and won (L+K, m) -- agent 0 searches, the bug exists
    (artificial entries always do), someone finds it, agent 0 wins its
    prize. A pinned agent 0 always searches."""
    dist = game.dist
    if not dist.c_low <= sim.threshold <= dist.c_high:
        raise ValueError("threshold must lie within the cost support")
    _check_prize_count(prizes, game)
    F = dist.cdf(sim.threshold)
    mus, _, q, _ = _bug_arrays(prizes, game)
    L, J = len(mus), len(q)
    mus, q = mus[:, None], q[:, None]
    for m, rng in _chunks(sim):
        # Trials are exchangeable, so they are ordered by S: the S = 0 prefix
        # needs no finder draws, and runs of equal S reuse the sampler's set-up.
        rivals = np.sort(rng.binomial(game.n - 1, F, m))
        idle = int(np.searchsorted(rivals, 0, side="right"))
        finders = np.zeros((J, m), dtype=np.int64)
        finders[:, idle:] = rng.binomial(rivals[idle:], q, (J, m - idle))
        u = rng.random((L + J + (not pinned), m))
        searching = np.ones(m, dtype=bool) if pinned else u[L + J] < F
        exists = np.ones((J, m), dtype=bool)
        exists[:L] = u[:L] < mus
        # One uniform per bug: u < q is agent 0's find, and given it u / q is
        # again uniform, so u (T + 1) < q is winning among the T + 1 finders.
        u_find = u[L : L + J]
        own = u_find < q
        own &= exists
        own &= searching
        found = own | (finders > 0)
        found &= exists
        won = own & (u_find * (finders + 1.0) < q)
        yield searching, exists, found, won


def _binomial_stat(name, hits, n_obs, closed):
    p = hits / n_obs if n_obs > 0 else math.nan
    # at p = 0 or 1 the plug-in error is 0; the closed form's keeps z finite
    p_se = closed if p in (0.0, 1.0) else p
    se = math.sqrt(p_se * (1.0 - p_se) / n_obs) if n_obs > 0 else math.nan
    return SimStat(name, p, se, closed)


def _mean_stat(name, total, total_sq, count, closed):
    mean = total / count
    var = max(total_sq - total * total / count, 0.0) / max(count - 1, 1)
    return SimStat(name, mean, math.sqrt(var / count), closed)


def simulate(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig) -> SimReport:
    """Run the stage game sim.trials times at the given threshold strategy."""
    L = len(game.bugs)
    _, ws, q, prize = _bug_arrays(prizes, game)
    J = len(q)
    # per bug: found, won by agent 0, agent 0 could win it (searching, and the
    # bug exists), exists; then the trials in which agent 0 searches
    counts = np.zeros(4 * J + 1, dtype=np.int64)
    # sum and sum of squares of the payout, the designer's utility and agent 0's winnings
    moments = np.zeros((3, 2))
    for searching, exists, found, won in _trials(prizes, game, sim, pinned=False):
        pay = prize @ found
        values = (pay, ws @ found[:L] - pay, prize @ won)  # agent 0 wins 0 when idle
        moments += [(x.sum(), (x * x).sum()) for x in values]
        rows = (*found, *won, *(exists & searching), *exists, searching)
        counts += [np.count_nonzero(row) for row in rows]  # without an axis: numpy's fast path

    found_n, won_n, eligible_n, exists_n = counts[:-1].reshape(4, J)
    c_hat = sim.threshold
    stage = _stage_at(c_hat, prizes, game)
    detect = stage.detect_organic_conditional + stage.detect_artificial
    phi = [win_prob_phi(c_hat, q_j, game.n, game.dist) for q_j in q]

    def group(name, bugs, hits, n_obs, closed):
        return tuple(
            _binomial_stat(f"{name}_{i}", hits[j], n_obs[j], closed[j])
            for i, j in enumerate(bugs, start=1)
        )

    org, art = range(L), range(L, J)
    return SimReport(
        trials=sim.trials,
        seed=sim.seed,
        threshold=c_hat,
        detect_unconditional=group(
            "detect_uncond_bug", org, found_n, [sim.trials] * L, stage.detect_organic_unconditional
        ),
        detect_conditional=group("detect_cond_bug", org, found_n, exists_n, detect),
        detect_artificial=group("detect_artificial", art, found_n, exists_n, detect),
        win_organic=group("win_bug", org, won_n, eligible_n, phi),
        win_artificial=group("win_artificial", art, won_n, eligible_n, phi),
        payout=_mean_stat("payout_total", *moments[0], sim.trials, stage.expected_payout),
        utility=_mean_stat("designer_utility", *moments[1], sim.trials, stage.designer_utility),
        marginal_benefit=_mean_stat(
            "marginal_benefit",
            *moments[2],
            max(int(counts[-1]), 1),
            expected_benefit_psi(c_hat, prizes, game),
        ),
    )


@dataclass(frozen=True)
class DeviationGap:
    """How far a threshold-cost searcher's simulated benefit sits from the
    equilibrium threshold. At an interior equilibrium the gap estimates 0."""

    gap: float
    estimate: float
    std_error: float
    c_star: float
    boundary: str
    threshold: float


def check_equilibrium(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig) -> DeviationGap:
    """Pin one agent to always search against n - 1 threshold rivals and
    compare the pinned agent's mean winnings to the equilibrium threshold."""
    prize = _bug_arrays(prizes, game)[3]
    total = total_sq = 0.0
    for _, _, _, won in _trials(prizes, game, sim, pinned=True):
        gain = prize @ won
        total += gain.sum()
        total_sq += (gain * gain).sum()

    outcome = solve_equilibrium(prizes, game)
    stat = _mean_stat("pinned_benefit", total, total_sq, sim.trials, outcome.c_star)
    return DeviationGap(
        gap=abs(stat.estimate - outcome.c_star),
        estimate=stat.estimate,
        std_error=stat.std_error,
        c_star=outcome.c_star,
        boundary=outcome.boundary,
        threshold=sim.threshold,
    )
