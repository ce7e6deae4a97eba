"""Seeded Monte Carlo runs of the second-stage game.

Each trial plays the game from the seat of one reference agent (agent 0)
against n - 1 rivals who search iff their cost is at most the strategy
threshold. Per trial it draws counts and agent 0's own outcomes only:

* the number of searching rivals, S ~ Bin(n - 1, F(threshold)), as one
  histogram a chunk (below);
* whether agent 0 searches, as a count: of the chunk's trials at each
  value of S, Bin(count, F) search (all of them, when pinned);
* per organic or artificial bug, one uniform u: the bug exists iff u < mu
  (mu = 1 for artificial entries, which always exist); given that, u / mu
  is uniform, so a searching agent 0 finds it iff u < mu q; given that,
  u / (mu q) is uniform again, so agent 0 wins its prize, which goes to
  one uniformly random finder among T + 1, iff u (T + 1) < mu q;
* per bug and trial in which agent 0 searches, the number of rival
  finders T | S ~ Bin(S, q). Where S = 0, T = 0 and nothing is drawn.
  Where 1 <= S <= INVERSION_MAX, T is drawn by inversion from one uniform
  v: T > k iff v < P(T > k | S), read off a table of the law of S
  independent rival finds at q (a primitive of the model, not a closed
  form of the paper), built in each call up to the largest S drawn, one
  rival at a time, with each tail summed down from its top. Larger S take
  numpy's binomial sampler.

Whether anyone finds a bug needs only whether T > 0. Where agent 0 does
not find it, the rest of u is uniform again, so someone finds it iff
u < mu q + mu (1 - q) P(T > 0 | S) when agent 0 searches and
u < mu P(T > 0 | S) when it does not. P(T > 0 | S) = 1 - (1 - q)^S is the
first tail of the same finder law, taken as -expm1(S log1p(-q)). So T is
drawn only where agent 0 searches, the one place a win is tallied.

Trials are exchangeable, so the kernel reads S only through its
histogram over a chunk's trials. Where the standard deviation of S is at
most the chunk size over TRIALS_PER_SD (128 for a full chunk), that
histogram is drawn directly: one binomial for the count below the median
of S, then one scalar binomial per occupied value, walking down with
P(S = k | S <= k) and up with P(S = k | S >= k) until each side has no
trials left. Those probabilities come from the binomial law of the rival
count, n - 1 independent participation draws at F (a primitive of the
model, not a closed form of the paper), built once a call from the ratio
of successive terms with each tail summed from its far end. Wider laws
draw S per trial and count its values.

That is L + K uniforms a trial, pinned or not, drawn into one buffer a
call, one binomial per occupied value of S a chunk (per trial for wider
laws), and, unless pinned, one more per occupied value for agent 0's
search. T takes L + K more uniforms for each searching trial with
1 <= S <= INVERSION_MAX, BLOCK trials at a time into a second buffer, and
L + K binomials for each with a larger S. Given S the finder counts of
different bugs are independent, so bugs are correlated only through
shared participation, as in the game. No array has an n axis: a chunk
holds O(CHUNK (L + K)) numbers whatever n and F are. No draw uses a
closed form; estimates come with standard errors and the matching closed
forms, read off ``game``, so a report row reads as a z-test. The mean
rows are formed in an exact power-of-two unit of their prizes
(``_mean_stat``), so their variances do not overflow in squared units. A
mean row of a certain outcome has no sampling error; where its estimate
parts from the closed form by no more than the closed form's rounding, it
reads that rounding bound as its error.

A chunk keeps no outcome past its own tally: per bug and per pair of
bugs, the trials in which they were found and won, and per bug the trials
in which it exists and agent 0 could win it. Every mean and sample
variance follows from those counts, so the chunk lays its trials out in
runs of equal (search, S): the searching trials first, then the idle
ones, each part sorted by S. The found compare's threshold is constant
on a run, the searching runs bound the finder blocks, and only searching
trials with S > INVERSION_MAX get an S of their own, for numpy's
binomial. On the searching S = 0 run T = 0, so a find there is agent 0's
own and a win as well; its counts are taken once and added to both
tallies. Artificial entries skip the existence compare (mu = 1 > u).
Since fl(u k) >= u for k >= 1, u (T + 1) < mu q implies u < mu q bit for
bit, so the pinned run (``check_equilibrium``) makes that one compare per
bug and trial and tallies wins only.

Trial chunks of fixed size draw from PCG64 streams seeded by SeedSequence
with the run's seed as entropy and the chunk index as spawn key, so runs
are reproducible bit-for-bit, chunks are independent streams, and they
could be evaluated in parallel without changing the result.

numpy is imported by the functions that draw and tally, not when the module
executes. ``import bountylab`` executes no layer, this one included (see the
package docstring), and ``simulate`` is the one CLI mode that executes this
module or loads numpy.
"""

from __future__ import annotations

import math

from . import _Record
from .game import (
    GameConfig,
    PrizeSchedule,
    _entries,
    _found_variance,
    _is_int,
    _stage_at,
    expected_benefit_psi,
    solve_equilibrium,
    win_prob_phi,
)

CHUNK = 1 << 16
# Finder counts of at most this many rivals are drawn by inversion: at 2^16
# trials of 8 to 64 rivals it took 1/8 to 1/2.5 of the time of numpy's
# binomial, which takes the larger ones. A block's comparisons take at most
# 8 x BLOCK booleans a bug, the room of its CHUNK uniforms.
INVERSION_MAX = 64
BLOCK = CHUNK // 8  # trials per draw of finder counts
# Chunks of m trials draw their rival counts S as a histogram where the
# standard deviation of S is at most m / TRIALS_PER_SD, else one S per trial,
# sorted. That is about half the spread of the measured crossover, near
# sd = m / 240 to m / 200 for m from 10^3 to 2^16 (at 2^16 trials the
# histogram took 1.4 ms at sd = 128 against the sorted draw's 3.4 ms).
TRIALS_PER_SD = 512
# The histogram's law keeps the terms of at least this fraction of the mode's.
TAIL = 1e-30
# The found compare takes one call a run of equal (search, S) where a chunk's
# runs average at least this many trials, else it expands each trial's
# threshold: a call costs about as much as expanding 250 to 500 trials'
# thresholds (at 2^16 trials, 16 runs took 1.5 ns a trial against 7 ns
# expanded, and 600 runs 19 ns against 5).
MIN_RUN = 256


class SimConfig(_Record):
    """A Monte Carlo run: trial count, 64-bit seed and the common threshold strategy."""

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


class SimStat(_Record):
    """One estimate with its standard error, beside the closed form it checks."""

    name: str
    estimate: float
    std_error: float
    closed_form: float

    @property
    def z_score(self) -> float:
        if self.std_error == 0.0:
            return 0.0 if self.estimate == self.closed_form else math.inf
        return (self.estimate - self.closed_form) / self.std_error


class SimReport(_Record):
    """Every estimate of one ``simulate`` run, with the run's configuration."""

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


def _chunk_rng(seed: int, index: int) -> "numpy.random.Generator":
    import numpy as np

    # The chunk index is a spawn key, not a second entropy word: SeedSequence
    # pads short entropy with zeros, so [seed, index] would give seed s at
    # chunk 1 the stream of seed s + 2**32 at chunk 0.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def _chunks(sim: SimConfig):
    """(trial count, generator) per chunk, in the fixed (seed, index) order."""
    for index, start in enumerate(range(0, sim.trials, CHUNK)):
        yield min(CHUNK, sim.trials - start), _chunk_rng(sim.seed, index)


def _bug_arrays(prizes: PrizeSchedule, game: GameConfig):
    """The prize, mu, q and w per posted entry, as four arrays: the organic
    bugs first, then the artificial entries, each a bug with mu = 1 and
    w = 0 (``game._entries``)."""
    import numpy as np

    return np.array(_entries(prizes, game), dtype=float).T


def _rival_law(rivals: int, F: float):
    """The law of S ~ Bin(rivals, F) as the histogram sampler reads it:
    the values k it keeps, ascending, with P(S = k | S <= k) and
    P(S = k | S >= k); the index of the median; and P(S < median).

    Terms come from the ratio recurrence pmf(k + 1) / pmf(k) =
    (rivals - k) / (k + 1) F / (1 - F) in logs, relative to the mode, over
    12 sd + 30 values either side of it, which holds every term of at least
    TAIL of the mode's (checked against lgamma up to rivals = 10^12); the
    rest are dropped. Each tail is summed from its far end, so neither loses
    its digits to a `1 -`. The mode is found from the smaller of F and 1 - F
    (exact for F >= 1/2), so it stays exact where S sits next to rivals."""
    import numpy as np

    sd = math.sqrt(rivals * F * (1.0 - F))
    mode = int((rivals + 1) * F) if F <= 0.5 else rivals - int((rivals + 1) * (1.0 - F))
    if sd == 0.0:  # no rivals, or F in {0, 1}
        return np.array([mode]), [1.0], [1.0], 0, 0.0
    width = math.ceil(12.0 * sd) + 30
    lo, hi = max(mode - width, 0), min(mode + width, rivals)
    k = lo + np.arange(hi - lo + 1)  # int64 up to rivals = 2**63 - 1
    step = np.log(rivals - k[:-1]) - np.log(k[:-1] + 1) + (math.log(F) - math.log1p(-F))
    log_pmf = np.concatenate(([0.0], np.cumsum(step)))
    pmf = np.exp(log_pmf - log_pmf[mode - k[0]])
    keep = pmf >= TAIL
    k, pmf = k[keep], pmf[keep]
    below = np.cumsum(pmf)  # P(S <= k), summed up from the bottom
    above = np.cumsum(pmf[::-1])[::-1]  # P(S >= k), summed down from the top
    split = int(np.searchsorted(below, 0.5 * below[-1]))
    p_below = below[split - 1] / (below[split - 1] + above[split]) if split else 0.0
    return k, (pmf / below).tolist(), (pmf / above).tolist(), split, float(p_below)


def _rival_sampler(rivals: int, F: float, chunk: int):
    """A function (rng, m) -> the histogram of m <= chunk draws of
    S ~ Bin(rivals, F): the values drawn, ascending, and how many trials drew
    each, as two int64 arrays.

    Where the standard deviation of S exceeds chunk / TRIALS_PER_SD each
    trial draws its own S. Otherwise the chunk's histogram of S is drawn: one
    binomial for the count below the median, then one per occupied value
    walking down with P(S = k | S <= k) and up with P(S = k | S >= k), each
    side stopping when it has no trials left. The law takes
    O(CHUNK / TRIALS_PER_SD) numbers whatever rivals is."""
    import numpy as np

    if math.sqrt(rivals * F * (1.0 - F)) * TRIALS_PER_SD > chunk:
        return lambda rng, m: np.unique(rng.binomial(rivals, F, m), return_counts=True)
    values, down, up, split, p_below = _rival_law(rivals, F)

    def draw(rng, m):
        counts = [0] * len(values)
        below = int(rng.binomial(m, p_below))
        for side, cond, left in (
            (range(split - 1, -1, -1), down, below),
            (range(split, len(values)), up, m - below),
        ):
            for i in side:
                if not left:
                    break
                counts[i] = c = int(rng.binomial(left, cond[i]))
                left -= c
        occupied = np.flatnonzero(counts)
        return values[occupied], np.array(counts)[occupied]

    return draw


def _finder_law(q, top: int):
    """P(T > k | S = s) for T ~ Bin(s, q), the count of s independent rival
    finds at each bug's q (a primitive of the model, not a closed form of the
    paper), as an array [s, k, bug] for s = 0..top and k = 0..top - 1, zero
    where k >= s. The law of s rivals adds one rival to that of s - 1, so
    every term is a sum of nonnegative products, exact at q in {0, 1}, and
    each tail is summed down from its top."""
    import numpy as np

    pmf = np.zeros((top + 1, top + 2, len(q)))  # [s, T + 1, bug]: T = -1 has mass 0
    pmf[0, 1] = 1.0
    miss = 1.0 - q
    for prev, row in zip(pmf, pmf[1:]):
        np.multiply(prev[1:], miss, out=row[1:])
        row[1:] += prev[:-1] * q
    return np.cumsum(pmf[:, :1:-1], axis=1)[:, ::-1]


def _rival_reach(q, values):
    """P(T > 0 | S = s) = 1 - (1 - q)^s for T ~ Bin(s, q), the k = 0 tail of
    _finder_law, as an array [s, bug] over the given values of s. (1 - q)^s
    is taken as exp(s log1p(-q)), which keeps its digits at small q; a
    certain find (q = 1) and s = 0 skip the log and the product, where they
    would read log 0 and 0 x -inf."""
    import numpy as np

    log_miss = np.log1p(-q, out=np.full(len(q), -np.inf), where=q < 1.0)
    s = values[:, None].astype(float)
    return -np.expm1(np.multiply(s, log_miss, out=np.zeros((len(values), len(q))), where=s > 0))


def _finder_counts(rng, values, counts, q, tails, buffer):
    """Rival finders T ~ Bin(S, q) per bug (rows, q per bug) and trial
    (columns), for trials sorted by S, whose histogram is values
    (ascending) and counts, as (columns, T) blocks.

    tails = _finder_law(q, top), with top at least min(max S, INVERSION_MAX).
    Where 1 <= S <= top, T is drawn by inversion: one uniform v per bug and
    trial, drawn at most BLOCK trials at a time into a prefix of buffer, and
    T > k iff v < P(T > k | S); each run of equal S reads one row of the
    table, 8 values of k at a time, or more where the run is short, so that
    its compares take at most 8 x BLOCK booleans a bug. The S = 0 prefix
    draws nothing and yields no block. Larger S take numpy's binomial
    sampler, BLOCK trials at a time, so that its int64 counts take no more
    room than one byte per trial of a chunk; each such block expands only
    its own S."""
    import numpy as np

    J, top = len(q), len(tails) - 1
    bounds = np.concatenate(([0], np.cumsum(counts)))  # first trial of each value
    first = int(values[0] == 0)  # the S = 0 prefix draws nothing
    last = int(np.searchsorted(values, top, side="right"))  # values[first:last] are inverted
    start, stop, m = int(bounds[first]), int(bounds[last]), int(bounds[-1])
    runs = list(zip(values[first:last].tolist(), bounds[first:last].tolist(), bounds[first + 1 : last + 1].tolist()))
    for lo in range(start, stop, BLOCK):
        hi = min(lo + BLOCK, stop)
        v = buffer[: J * (hi - lo)].reshape(J, hi - lo)
        rng.random(v.shape, out=v)
        finders = np.empty(v.shape, dtype=np.uint8)
        for s, a, b in runs:
            if a < hi and b > lo:
                run = slice(max(a, lo) - lo, min(b, hi) - lo)
                # T counts the k with v < P(T > k | S = s)
                step = max(8, 8 * BLOCK // (run.stop - run.start))
                np.add.reduce(v[:, run] < tails[s, : min(s, step), :, None], axis=0, dtype=np.uint8, out=finders[:, run])
                for k in range(step, s, step):
                    tail = tails[s, k : min(s, k + step), :, None]
                    finders[:, run] += np.add.reduce(v[:, run] < tail, axis=0, dtype=np.uint8)
        yield slice(lo, hi), finders
    for lo in range(stop, m, BLOCK):
        hi = min(lo + BLOCK, m)
        yield slice(lo, hi), rng.binomial(np.repeat(values, _clip_runs(bounds, lo, hi)), q[:, None], (J, hi - lo))


def _clip_runs(bounds, lo, hi):
    """The trials of each run, run i being trials bounds[i] to
    bounds[i + 1], that fall in trials lo to hi."""
    import numpy as np

    return np.maximum(np.minimum(bounds[1:], hi) - np.maximum(bounds[:-1], lo), 0)


def _tallies(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig, pinned: bool):
    """The run's outcomes as counts over its trials: (won, found, counts).
    won and found are the co-occurrence counts (see _gram) of the bugs agent
    0 wins and of the bugs someone finds; counts holds, per bug, the trials
    in which agent 0 could win it (searching, and the bug exists) and in
    which it exists, then the trials in which agent 0 searches. Bugs are
    ordered organic first. A pinned agent 0 always searches, and only its
    wins are tallied: found and counts are None."""
    import numpy as np

    dist = game.dist
    if not dist.c_low <= sim.threshold <= dist.c_high:
        raise ValueError("threshold must lie within the cost support")
    _, mu, q, _ = _bug_arrays(prizes, game)
    if game.n - 1 >= 2**63:
        raise ValueError("n - 1 must be below 2**63 to draw the rival count")
    F = dist.cdf(sim.threshold)
    chunk = min(CHUNK, sim.trials)
    draw_rivals = _rival_sampler(game.n - 1, F, chunk)
    L, J = len(game.bugs), len(q)
    mu = mu[:, None]
    mu_q = mu * q[:, None]
    mu_miss = mu * (1.0 - q[:, None])
    # one buffer per call, refilled in place: a fresh one per chunk would
    # page-fault its J x CHUNK floats in again; a prefix serves a short last
    # chunk
    buffer = np.empty(J * chunk)
    finder_buffer = np.empty(J * min(BLOCK, chunk))
    flags = np.empty(2 * J * chunk, dtype=bool)
    won = np.zeros((J, J), dtype=np.int64)
    found = None if pinned else np.zeros((J, J), dtype=np.int64)
    counts = None if pinned else np.zeros(2 * J + 1, dtype=np.int64)
    tails = ()  # the finder law, built up to the largest S so far
    for m, rng in _chunks(sim):
        # Trials are exchangeable, so they are ordered by S, through its
        # histogram, and by agent 0's search: the searching trials at each
        # value of S, Bin(count, F) of them, come first.
        values, occupied = draw_rivals(rng, m)
        top = min(int(values[-1]), INVERSION_MAX)
        if len(tails) <= top:
            tails = _finder_law(q, top)
        search = occupied if pinned else rng.binomial(occupied, F)
        searching = search > 0
        s_values, s_counts = values[searching], search[searching]
        n_search = int(s_counts.sum())
        zero = int(s_counts[0]) if n_search and s_values[0] == 0 else 0  # searching, S = 0: T = 0
        u = buffer[: J * m].reshape(J, m)
        rng.random(u.shape, out=u)
        # One uniform per bug: u < mu is existence; given it u / mu is
        # uniform, so u < mu q is agent 0's find; given that, u / (mu q) is
        # uniform again, so u (T + 1) < mu q is winning among T + 1 finders.
        # Since fl(u k) >= u for k >= 1, a win implies the find.
        wins, finds = flags[: 2 * J * m].reshape(2, J, m)
        if pinned:
            np.less(u[:, :zero], mu_q, out=wins[:, :zero])
        else:
            # Where agent 0 does not find the bug, the rest of u is uniform
            # again, so someone finds it iff u < mu q + mu (1 - q) P(T > 0 | S)
            # on a searching run and u < mu P(T > 0 | S) on an idle one: one
            # compare a run, and T is needed only where agent 0 searches.
            reach = _rival_reach(q, values)[..., None]
            thresholds = np.concatenate((mu_q + mu_miss * reach, mu * reach))
            sizes = np.concatenate((search, occupied - search))
            if np.count_nonzero(sizes) * MIN_RUN <= m:
                end = 0
                for threshold, size in zip(thresholds, sizes.tolist()):
                    if size:
                        np.less(u[:, end : end + size], threshold, out=finds[:, end : end + size])
                        end += size
            else:  # short runs: each trial's threshold, BLOCK trials at a time
                bounds = np.concatenate(([0], np.cumsum(sizes)))
                for lo in range(0, m, BLOCK):
                    hi = min(lo + BLOCK, m)
                    per_trial = np.repeat(thresholds[..., 0], _clip_runs(bounds, lo, hi), axis=0)
                    np.less(u[:, lo:hi], per_trial.T, out=finds[:, lo:hi])
            # wins[:L] holds existence until the finder blocks fill it; artificial
            # entries always exist
            exists = np.less(u[:L], mu[:L], out=wins[:L])
            eligible = [np.count_nonzero(row[:n_search]) for row in exists] + [n_search] * (J - L)
            present = [np.count_nonzero(row) for row in exists] + [m] * (J - L)
            counts += [*eligible, *present, n_search]
        if n_search:
            for cols, finders in _finder_counts(rng, s_values, s_counts, q, tails, finder_buffer):
                scaled = u[:, cols]
                scaled *= finders + 1
                np.less(scaled, mu_q, out=wins[:, cols])
        if pinned:
            won += _gram(wins)
        else:
            # on the searching S = 0 prefix agent 0's finds are both found and won
            alone = _gram(finds[:, :zero])
            found += alone + _gram(finds[:, zero:])
            won += alone + _gram(wins[:, zero:n_search])
    return won, found, counts


def _gram(rows):
    """Co-occurrence counts of boolean rows: G[j, k] counts the trials in
    which rows j and k both hold, so G's diagonal counts each row, and
    sum_t (a . x_t)^2 = a G a for any weights a."""
    import numpy as np

    gram = np.empty((len(rows), len(rows)), dtype=np.int64)
    for j in range(len(rows)):
        for k in range(j, len(rows)):
            gram[j, k] = gram[k, j] = np.count_nonzero(rows[j] & rows[k])
    return gram


def _binomial_stat(name, hits, n_obs, closed):
    p = hits / n_obs if n_obs > 0 else math.nan
    # at p = 0 or 1 the plug-in error is 0; the closed form's keeps z finite
    p_se = closed if p in (0.0, 1.0) else p
    # as a product of roots, so that a subnormal p_se keeps a nonzero error
    se = math.sqrt(p_se) * math.sqrt((1.0 - p_se) / n_obs) if n_obs > 0 else math.nan
    return SimStat(name, p, se, closed)


def _mean_stat(name, weights, gram, count, closed, fallback_var, rounding=0.0):
    """The mean of weights . x over count trials and its standard error,
    from the co-occurrence counts of the rows x (trials beyond count have
    x = 0), formed in units of 2^(e - 1), e the ``math.frexp`` exponent of
    the largest |weight|: the scale is exact, and squares stay in range.
    When every trial gave the same value the sample variance is 0, and
    fallback_var(scaled weights, unit) stands in for it, in squared units.
    Where that is 0 too the outcome is certain, and an estimate within
    ``rounding`` of the closed form reads that bound as its error."""
    import numpy as np

    if count == 0:
        return SimStat(name, math.nan, math.nan, closed)
    # 2^e itself overflows at a weight of 1.7e308
    unit = math.ldexp(1.0, math.frexp(float(np.max(np.abs(weights))))[1] - 1)
    weights = weights / unit
    hits = np.diag(gram)
    # count^2 times the rows' sample covariance, in exact (Python) integers:
    # all-equal trials give exactly 0, with no cancellation in floats
    exact_hits = hits.astype(object)
    scaled_cov = (gram.astype(object) * count - np.outer(exact_hits, exact_hits)).astype(float)
    var = max(float(weights @ scaled_cov @ weights), 0.0) / (count * max(count - 1, 1))
    if var == 0.0:
        var = fallback_var(weights, unit)
    estimate, se = float(weights @ hits) / count * unit, math.sqrt(var / count) * unit
    if se == 0.0 and 0.0 < abs(estimate - closed) <= rounding:
        se = rounding
    return SimStat(name, estimate, se, closed)


def _rounding_bound(terms) -> float:
    """A bound on the rounding error of a closed form that sums k terms of
    these magnitudes, each exact to a few ulps: (k + 2)^2 ulps of the
    largest. Each of the k roundings of the running sums is at most an ulp
    of a partial sum, which is at most k times the largest term (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 3)."""
    return (len(terms) + 2) ** 2 * math.ulp(float(max(terms)))


def _winnings_variance(mean):
    """Bhatia-Davis: a winning in [0, sum of prizes] with this mean has
    variance at most (sum - mean) mean, as _mean_stat's fallback_var."""
    return lambda prize, unit: max(float(prize.sum()) - mean / unit, 0.0) * (mean / unit)


def simulate(prizes: PrizeSchedule, game: GameConfig, sim: SimConfig) -> SimReport:
    """Run the stage game sim.trials times at the given threshold strategy."""
    import numpy as np

    L = len(game.bugs)
    prize, mu, q, w = _bug_arrays(prizes, game)
    J = len(q)
    won_gram, found_gram, counts = _tallies(prizes, game, sim, pinned=False)

    found_n, won_n = np.diag(found_gram), np.diag(won_gram)
    eligible_n, exists_n = counts[:-1].reshape(2, J)
    c_hat = sim.threshold
    _, detect_cond, detect_uncond, detect_art, payout, utility = _stage_at(c_hat, prizes, game)
    detect = detect_cond + detect_art
    phi = [win_prob_phi(c_hat, q_j, game.n, game.dist) for q_j in q]
    psi = expected_benefit_psi(c_hat, prizes, game)
    # the terms the closed forms sum: w P and v P per entry for the payout
    # and W (P the chance it is found), v mu Phi for Psi
    found = mu * detect
    found_bound = _rounding_bound(np.concatenate((w * found, prize * found)))
    won_bound = _rounding_bound(prize * mu * phi)

    def found_variance(weights, unit):
        return _found_variance(c_hat, prizes, game, weights.tolist())

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
        detect_unconditional=group("detect_uncond_bug", org, found_n, [sim.trials] * L, detect_uncond),
        detect_conditional=group("detect_cond_bug", org, found_n, exists_n, detect),
        detect_artificial=group("detect_artificial", art, found_n, exists_n, detect),
        win_organic=group("win_bug", org, won_n, eligible_n, phi),
        win_artificial=group("win_artificial", art, won_n, eligible_n, phi),
        payout=_mean_stat(
            "payout_total", prize, found_gram, sim.trials, payout, found_variance, found_bound
        ),
        utility=_mean_stat(
            "designer_utility", w - prize, found_gram, sim.trials, utility, found_variance, found_bound
        ),
        marginal_benefit=_mean_stat(
            "marginal_benefit", prize, won_gram, int(counts[-1]), psi, _winnings_variance(psi), won_bound
        ),
    )


class DeviationGap(_Record):
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
    prize = _bug_arrays(prizes, game)[0]
    won_gram = _tallies(prizes, game, sim, pinned=True)[0]

    outcome = solve_equilibrium(prizes, game)
    # the pinned agent's winnings average Psi at the rivals' threshold
    psi = expected_benefit_psi(sim.threshold, prizes, game)
    stat = _mean_stat(
        "pinned_benefit", prize, won_gram, sim.trials, outcome.c_star, _winnings_variance(psi)
    )
    return DeviationGap(
        gap=abs(stat.estimate - outcome.c_star),
        estimate=stat.estimate,
        std_error=stat.std_error,
        c_star=outcome.c_star,
        boundary=outcome.boundary,
        threshold=sim.threshold,
    )
