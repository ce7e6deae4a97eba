"""Seeded Monte Carlo runs of the second-stage game.

Each trial draws n private costs, lets agents at or below the strategy
threshold search, realizes bug existence and finds, and hands each found
bug's prize to one uniformly random finder. Estimates come with standard
errors and the matching closed forms so a report row reads as a z-test.

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
    detect_prob,
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
        if not (isinstance(self.trials, int) and self.trials >= 1):
            raise ValueError("trials must be an integer >= 1")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")


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
    """mu, q, w per organic bug, the organic prizes, and v_a, q_a per
    artificial entry, as arrays."""
    bugs, art = game.bugs, prizes.artificial
    columns = [[b.mu for b in bugs], [b.q for b in bugs], [b.w for b in bugs], prizes.v]
    return [np.array(c) for c in columns + [[a.v_a for a in art], [a.q_a for a in art]]]


def _binomial_stat(name, hits, n_obs, closed):
    p = hits / n_obs if n_obs > 0 else math.nan
    se = math.sqrt(p * (1.0 - p) / n_obs) if n_obs > 0 else math.nan
    return SimStat(name, p, se, closed)


def _mean_stat(name, total, total_sq, count, closed):
    mean = total / count
    var = max(total_sq - total * total / count, 0.0) / max(count - 1, 1)
    return SimStat(name, mean, math.sqrt(var / count), closed)


def simulate(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig) -> SimReport:
    """Run the stage game sim.trials times at the given threshold strategy."""
    dist = game.dist
    if not dist.c_low <= sim.threshold <= dist.upper_bound():
        raise ValueError("threshold must lie within the cost support")
    if len(prizes.v) != len(game.bugs):
        raise ValueError("prize list length must match bug count")

    n, L = game.n, len(game.bugs)
    K = len(prizes.artificial)
    mus, qs, ws, v, va, qa = _bug_arrays(prizes, game)

    found_org = np.zeros(L)
    exists_cnt = np.zeros(L)
    found_art = np.zeros(K)
    pay_sum = pay_sq = 0.0
    util_sum = util_sq = 0.0
    agent0_n = 0.0
    wins0_org = np.zeros(L)
    wins0_org_n = np.zeros(L)  # trials with agent 0 searching and bug existing
    wins0_art = np.zeros(K)
    gain0_sum = gain0_sq = 0.0

    for m, rng in _chunks(sim):
        costs = dist.quantile(rng.random((m, n)))
        part = costs <= sim.threshold
        exists = rng.random((m, L)) < mus
        finds = (rng.random((m, n, L)) < qs) & part[:, :, None]
        keys = rng.random((m, n, L))
        finds_a = (rng.random((m, n, K)) < qa) & part[:, :, None]
        keys_a = rng.random((m, n, K))

        found = exists & finds.any(axis=1)
        # uniform tie-splitting: iid keys make argmax a uniform draw
        winner = np.argmax(np.where(finds, keys, -1.0), axis=1)
        found_a = finds_a.any(axis=1)
        winner_a = np.argmax(np.where(finds_a, keys_a, -1.0), axis=1)

        pay = found @ v + found_a @ va
        util = found @ ws - pay
        pay_sum += pay.sum()
        pay_sq += (pay * pay).sum()
        util_sum += util.sum()
        util_sq += (util * util).sum()

        found_org += found.sum(axis=0)
        exists_cnt += exists.sum(axis=0)
        found_art += found_a.sum(axis=0)

        p0 = part[:, 0]
        w0 = found & (winner == 0)
        w0a = found_a & (winner_a == 0)
        wins0_org += w0.sum(axis=0)
        wins0_org_n += (exists & p0[:, None]).sum(axis=0)
        wins0_art += w0a.sum(axis=0)
        agent0_n += p0.sum()
        gain0 = (w0 @ v + w0a @ va)[p0]
        gain0_sum += gain0.sum()
        gain0_sq += (gain0 * gain0).sum()

    T = sim.trials
    c_hat = sim.threshold
    det_uncond = tuple(
        _binomial_stat(
            f"detect_uncond_bug_{l + 1}",
            found_org[l],
            T,
            mus[l] * detect_prob(c_hat, qs[l], n, dist),
        )
        for l in range(L)
    )
    det_cond = tuple(
        _binomial_stat(
            f"detect_cond_bug_{l + 1}",
            found_org[l],
            exists_cnt[l],
            detect_prob(c_hat, qs[l], n, dist),
        )
        for l in range(L)
    )
    det_art = tuple(
        _binomial_stat(
            f"detect_artificial_{k + 1}",
            found_art[k],
            T,
            detect_prob(c_hat, qa[k], n, dist),
        )
        for k in range(K)
    )
    win_org = tuple(
        _binomial_stat(
            f"win_bug_{l + 1}",
            wins0_org[l],
            wins0_org_n[l],
            win_prob_phi(c_hat, qs[l], n, dist),
        )
        for l in range(L)
    )
    win_art = tuple(
        _binomial_stat(
            f"win_artificial_{k + 1}",
            wins0_art[k],
            agent0_n,
            win_prob_phi(c_hat, qa[k], n, dist),
        )
        for k in range(K)
    )
    det_uncond_cf = np.array([s.closed_form for s in det_uncond])
    det_art_cf = np.array([s.closed_form for s in det_art])
    payout_cf = float(det_uncond_cf @ v + det_art_cf @ va)
    utility_cf = float(det_uncond_cf @ ws - payout_cf)
    return SimReport(
        trials=T,
        seed=sim.seed,
        threshold=c_hat,
        detect_unconditional=det_uncond,
        detect_conditional=det_cond,
        detect_artificial=det_art,
        win_organic=win_org,
        win_artificial=win_art,
        payout=_mean_stat("payout_total", pay_sum, pay_sq, T, payout_cf),
        utility=_mean_stat("designer_utility", util_sum, util_sq, T, utility_cf),
        marginal_benefit=_mean_stat(
            "marginal_benefit",
            gain0_sum,
            gain0_sq,
            int(agent0_n) if agent0_n > 0 else 1,
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
    dist = game.dist
    outcome = solve_equilibrium(prizes, game)
    n_riv, L = game.n - 1, len(game.bugs)
    K = len(prizes.artificial)
    mus, qs, _, v, va, qa = _bug_arrays(prizes, game)

    total = total_sq = 0.0
    for m, rng in _chunks(sim):
        exists = rng.random((m, L)) < mus
        self_finds = (rng.random((m, L)) < qs) & exists
        self_finds_a = rng.random((m, K)) < qa
        if n_riv > 0:
            costs = dist.quantile(rng.random((m, n_riv)))
            part = costs <= sim.threshold
            riv = (rng.random((m, n_riv, L)) < qs) & part[:, :, None]
            riv_a = (rng.random((m, n_riv, K)) < qa) & part[:, :, None]
            riv_finders = riv.sum(axis=1)
            riv_finders_a = riv_a.sum(axis=1)
        else:
            riv_finders = np.zeros((m, L))
            riv_finders_a = np.zeros((m, K))
        # winner among the pinned finder plus t rival finders: chance 1/(t+1)
        u = rng.random((m, L))
        u_a = rng.random((m, K))
        win = self_finds & (u < 1.0 / (riv_finders + 1.0))
        win_a = self_finds_a & (u_a < 1.0 / (riv_finders_a + 1.0))
        gain = win @ v + win_a @ va
        total += gain.sum()
        total_sq += (gain * gain).sum()

    stat = _mean_stat("pinned_benefit", total, total_sq, sim.trials, outcome.c_star)
    return DeviationGap(
        gap=abs(stat.estimate - outcome.c_star),
        estimate=stat.estimate,
        std_error=stat.std_error,
        c_star=outcome.c_star,
        boundary=outcome.boundary,
        threshold=sim.threshold,
    )
