import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    check_equilibrium,
    expected_benefit_psi,
    simulate,
    solve_equilibrium,
    SimConfig,
)
from bountylab import simulation
from bountylab.game import _found_variance
from conftest import random_game

CANONICAL = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(0.25, 1.0),))


def test_zero_q_never_detects(uniform01):
    config = GameConfig(
        n=3, bugs=(OrganicBug(mu=0.5, q=1e-12, w=1.0),), dist=uniform01, budget=1.0
    )
    sched = PrizeSchedule(v=(1.0,), artificial=(ArtificialBugDesign(0.5, 0.0),))
    report = simulate(sched, config, SimConfig(trials=20_000, seed=9, threshold=0.5))
    assert report.detect_unconditional[0].estimate == 0.0
    assert report.detect_artificial[0].estimate == 0.0
    assert report.payout.estimate == 0.0


def test_simulation_matches_closed_forms(private_example):
    sim = SimConfig(trials=10**6, seed=20240809, threshold=2 / 9)
    report = simulate(CANONICAL, private_example, sim)
    for stat in report.rows():
        assert abs(stat.z_score) <= 4.0, stat
    # spot values: unconditional detection mu * P and utility W(2/9)
    assert report.detect_unconditional[0].closed_form == pytest.approx(17 / 162)
    assert report.utility.closed_form == pytest.approx(1 / 9)
    assert report.payout.closed_form == pytest.approx(8 / 81)


def test_simulation_is_deterministic(private_example):
    sim = SimConfig(trials=50_000, seed=7, threshold=2 / 9)
    a = simulate(CANONICAL, private_example, sim)
    b = simulate(CANONICAL, private_example, sim)
    assert a == b


def test_simulation_seed_independence(private_example):
    t = 200_000
    a = simulate(CANONICAL, private_example, SimConfig(t, 1, 2 / 9))
    b = simulate(CANONICAL, private_example, SimConfig(t, 2, 2 / 9))
    for x, y in zip(a.rows(), b.rows()):
        combined = np.hypot(x.std_error, y.std_error)
        assert abs(x.estimate - y.estimate) <= 6.0 * combined, (x, y)


def test_simulation_win_frequency_matches_oracle():
    rng = np.random.default_rng(51)
    for _ in range(20):
        config = random_game(rng)
        config = GameConfig(
            n=min(config.n, 8), bugs=config.bugs, dist=config.dist, budget=config.budget
        )
        v = tuple(rng.uniform(0.0, 0.5, len(config.bugs)))
        sched = PrizeSchedule(v=v, artificial=(ArtificialBugDesign(0.3, float(rng.uniform(0.1, 1))),))
        lo = max(config.dist.c_low, 0.0)
        threshold = float(rng.uniform(lo + 0.1, config.dist.upper_bound()))
        report = simulate(sched, config, SimConfig(trials=10**6, seed=int(rng.integers(2**32)), threshold=threshold))
        for stat in report.win_organic + report.win_artificial:
            assert abs(stat.z_score) <= 4.0, stat


def test_payout_identity_at_equilibrium(private_example):
    out = solve_equilibrium(CANONICAL, private_example)
    sim = SimConfig(trials=10**6, seed=99, threshold=out.c_star)
    report = simulate(CANONICAL, private_example, sim)
    identity = private_example.n * out.participation * out.c_star
    assert abs(report.payout.estimate - identity) <= 4.0 * report.payout.std_error


def test_check_equilibrium_gap_small(private_example):
    out = solve_equilibrium(CANONICAL, private_example)
    gap = check_equilibrium(CANONICAL, private_example, SimConfig(10**6, 12345, out.c_star))
    assert gap.boundary == "interior"
    assert gap.gap <= 4.0 * gap.std_error


def test_check_equilibrium_pinned_reports_boundary():
    config = GameConfig(
        n=2,
        bugs=(OrganicBug(0.5, 0.5, 1.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=1.0,
    )
    sched = PrizeSchedule.zero(1)
    out = solve_equilibrium(sched, config)
    gap = check_equilibrium(sched, config, SimConfig(10_000, 3, out.c_star))
    assert gap.boundary == "pinned_low"
    assert gap.estimate == 0.0
    assert gap.gap == pytest.approx(out.c_star)


def test_check_equilibrium_single_agent(uniform01):
    # alone, a searcher's benefit is v mu q regardless of the threshold
    config = GameConfig(
        n=1, bugs=(OrganicBug(mu=0.5, q=0.5, w=1.0),), dist=uniform01, budget=1.0
    )
    sched = PrizeSchedule.organic_only((1.0,))
    out = solve_equilibrium(sched, config)
    assert out.c_star == pytest.approx(0.25, abs=1e-10)
    gap = check_equilibrium(sched, config, SimConfig(400_000, 21, out.c_star))
    assert gap.gap <= 4.0 * gap.std_error


def test_marginal_benefit_estimates_psi(private_example):
    sched = PrizeSchedule(v=(0.4,), artificial=(ArtificialBugDesign(0.1, 0.8),))
    threshold = 0.3
    report = simulate(sched, private_example, SimConfig(10**6, 31, threshold))
    stat = report.marginal_benefit
    assert stat.closed_form == pytest.approx(
        expected_benefit_psi(threshold, sched, private_example)
    )
    assert abs(stat.z_score) <= 4.0


def test_simulation_rejects_bad_inputs(private_example):
    with pytest.raises(ValueError):
        SimConfig(trials=0, seed=1, threshold=0.5)
    with pytest.raises(ValueError):
        SimConfig(trials=10, seed=-1, threshold=0.5)
    with pytest.raises(ValueError):
        simulate(CANONICAL, private_example, SimConfig(10, 1, threshold=5.0))
    with pytest.raises(ValueError):
        simulate(PrizeSchedule.zero(2), private_example, SimConfig(10, 1, 0.5))
    for trials, seed, threshold in [
        (True, 1, 0.5),
        (10, False, 0.5),
        (10, 1, math.nan),
        (10, 1, math.inf),
        (10, 1, -math.inf),
    ]:
        with pytest.raises(ValueError):
            SimConfig(trials, seed, threshold)


def test_binomial_rows_where_every_trial_agrees(uniform01):
    # At n = 30 and threshold 0.9 the bug is found in all 4096 trials while
    # its closed form is a hair under 1: the error comes from the closed form.
    config = GameConfig(n=30, bugs=(OrganicBug(1.0, 0.5, 1.0),), dist=uniform01, budget=1.0)
    report = simulate(PrizeSchedule.organic_only((0.5,)), config, SimConfig(4096, 3, 0.9))
    for stat in (report.detect_unconditional[0], report.detect_conditional[0]):
        p0 = stat.closed_form
        assert stat.estimate == 1.0 and p0 < 1.0
        assert stat.std_error == pytest.approx(math.sqrt(p0 * (1.0 - p0) / 4096))
        assert math.isfinite(stat.z_score)
    # a certain find at a certain closed form reads z = 0
    certain = GameConfig(n=2, bugs=(OrganicBug(1.0, 1.0, 1.0),), dist=uniform01, budget=1.0)
    stat = simulate(PrizeSchedule.organic_only((0.5,)), certain, SimConfig(64, 1, 1.0))
    assert stat.detect_conditional[0].z_score == 0.0
    # no observations: the reference agent never searches at threshold c_low
    idle = simulate(PrizeSchedule.organic_only((0.5,)), config, SimConfig(64, 1, 0.0))
    assert math.isnan(idle.win_organic[0].estimate) and math.isnan(idle.win_organic[0].std_error)


def test_subnormal_closed_form_reads_a_finite_z(uniform01):
    """At q = 5e-324 agent 0's win probability is subnormal and no trial
    wins: p (1 - p) / n underflows to 0, but the error taken as a product of
    roots stays positive, so win_bug_1 reads a finite z near 0."""
    config = GameConfig(n=2, bugs=(OrganicBug(0.5, 5e-324, 2.0),), dist=uniform01, budget=0.5)
    stat = simulate(CANONICAL, config, SimConfig(100, 1, 0.5)).win_organic[0]
    assert stat.estimate == 0.0 and 0.0 < stat.closed_form < sys.float_info.min
    assert stat.std_error > 0.0 and math.isfinite(stat.z_score) and abs(stat.z_score) < 1.0


def test_zero_sample_variance_reads_the_exact_variance(uniform01):
    # At n = 30 and threshold 0.9 every trial pays 0.5: the sample variance
    # is 0, and the standard error comes from the closed-form variance.
    config = GameConfig(n=30, bugs=(OrganicBug(1.0, 0.5, 1.0),), dist=uniform01, budget=1.0)
    prizes = PrizeSchedule.organic_only((0.5,))
    report = simulate(prizes, config, SimConfig(4096, 3, 0.9))
    miss = (1.0 - 0.5 * 0.9) ** 30
    for stat in (report.payout, report.utility):
        assert stat.estimate == 0.5 and stat.closed_form < 0.5
        assert stat.std_error == pytest.approx(0.5 * math.sqrt(miss * (1.0 - miss) / 4096))
        assert math.isfinite(stat.z_score) and abs(stat.z_score) < 1.0
    # at F = 1 and q = 1 every bug is found for sure: the exact variance is 0 too
    certain = GameConfig(n=2, bugs=(OrganicBug(1.0, 1.0, 3.0),), dist=uniform01, budget=1.0)
    sched = PrizeSchedule(v=(0.5,), artificial=(ArtificialBugDesign(0.25, 1.0),))
    report = simulate(sched, certain, SimConfig(64, 1, 1.0))
    for stat in (report.payout, report.utility):
        assert stat.std_error == 0.0 and stat.z_score == 0.0, stat


def test_a_certain_mean_row_compares_within_the_closed_forms_rounding(uniform01):
    """A lone searcher finds and wins both prizes, 0.3 and 0.1, whenever it
    searches: at threshold 1 it always does, so W has no sampling error, and
    at 0.5 neither do its winnings. The estimates part from the closed forms
    by rounding only (-0.3 against -0.30000000000000004, 0.39999999999999997
    against 0.4), and those rows read the closed form's rounding bound as
    their error, so |z| <= 1 where an exact compare read inf. A row whose
    estimate equals its closed form keeps an error of 0."""
    config = GameConfig(n=1, bugs=(OrganicBug(1.0, 1.0, 0.1),), dist=uniform01, budget=1.0)
    sched = PrizeSchedule(v=(0.3,), artificial=(ArtificialBugDesign(0.1, 1.0),))
    always = simulate(sched, config, SimConfig(64, 1, 1.0))
    half = simulate(sched, config, SimConfig(64, 1, 0.5))
    for stat in (always.utility, half.marginal_benefit):
        assert stat.estimate != stat.closed_form, stat
        assert 0.0 < stat.std_error <= 64 * math.ulp(0.4) and abs(stat.z_score) <= 1.0, stat
    for stat in (always.payout, always.marginal_benefit):
        assert stat.estimate == stat.closed_form and stat.std_error == 0.0 and stat.z_score == 0.0, stat


def test_check_equilibrium_rejects_bad_inputs(private_example):
    # the private example's support is [0, 1]
    for threshold in (-0.5, 1.5):
        with pytest.raises(ValueError):
            check_equilibrium(CANONICAL, private_example, SimConfig(10, 1, threshold))
    with pytest.raises(ValueError):
        check_equilibrium(PrizeSchedule.zero(2), private_example, SimConfig(10, 1, 0.5))


def test_memory_does_not_grow_with_n():
    """At n = 10^6 one (65536, n) float array per chunk would take 5e14
    bytes; the kernel draws counts, so its peak matches the n = 2 run."""
    bugs = (OrganicBug(0.5, 0.5, 2.0),)
    sched = PrizeSchedule(v=(1.0,), artificial=(ArtificialBugDesign(0.5, 1.0),))
    peaks = []
    for n in (2, 10**6):
        config = GameConfig(n=n, bugs=bugs, dist=CostDistribution.uniform(0.0, 1.0), budget=2.0)
        out = solve_equilibrium(sched, config)
        tracemalloc.start()
        try:
            # n F = 2 searchers on average keeps every detection row away from 0 and 1
            report = simulate(sched, config, SimConfig(1 << 16, 11, min(2.0 / n, 0.5)))
            gap = check_equilibrium(sched, config, SimConfig(1 << 16, 12, out.c_star))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        # At n = 10^6 one agent wins about 2^16 mu / n < 0.1 prizes in the
        # whole run, so the agent-0 rows (win_*, marginal_benefit) carry no data.
        rows = report.detect_unconditional + report.detect_conditional + report.detect_artificial
        for stat in rows + (report.payout, report.utility):
            assert abs(stat.z_score) <= 4.0, (n, stat)
        assert gap.gap <= 4.0 * gap.std_error, (n, gap)
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_memory_does_not_grow_with_bernoulli_finder_counts():
    """With S pinned at INVERSION_MAX (F = 1 and n - 1 = INVERSION_MAX) every
    trial compares its finder uniform with INVERSION_MAX tails a bug; each
    block's comparisons are freed before the next, so the peak matches the
    n = 2 run (S = 1)."""
    bugs = (OrganicBug(0.5, 0.5, 2.0),)
    sched = PrizeSchedule(v=(1.0,), artificial=(ArtificialBugDesign(0.5, 0.3),))
    peaks = []
    for n in (2, simulation.INVERSION_MAX + 1):
        config = GameConfig(n=n, bugs=bugs, dist=CostDistribution.uniform(0.0, 1.0), budget=2.0)
        tracemalloc.start()
        try:
            report = simulate(sched, config, SimConfig(1 << 16, 11, 1.0))
            check_equilibrium(sched, config, SimConfig(1 << 16, 12, 1.0))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        for stat in report.rows():
            assert abs(stat.z_score) <= 4.0, (n, stat)
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_both_finder_samplers_in_one_chunk(uniform01, monkeypatch):
    """S ~ Bin(2 INVERSION_MAX, 1/2) straddles INVERSION_MAX, so each chunk
    draws the finders of some trials by inversion and of the rest from
    numpy's binomial; every row must still match its closed form. The blocks
    cover the trials with S >= 1 once each, inversion BLOCK trials at most
    at a time."""
    blocks, pieces = [], []

    def spy(rng, values, counts, *law):
        rivals = np.repeat(values, counts)  # the chunk's S, sorted
        inverted = np.count_nonzero((rivals >= 1) & (rivals <= simulation.INVERSION_MAX))
        pieces.append(-(-inverted // simulation.BLOCK))
        covered = 0
        for cols, finders in finder_counts(rng, values, counts, *law):
            blocks.append((finders.dtype, int(rivals[cols].min()), int(rivals[cols].max())))
            covered += cols.stop - cols.start
            yield cols, finders
        assert covered == np.count_nonzero(rivals)

    finder_counts = simulation._finder_counts
    monkeypatch.setattr(simulation, "_finder_counts", spy)
    config = GameConfig(
        n=2 * simulation.INVERSION_MAX + 1,
        bugs=(OrganicBug(0.8, 0.1, 1.0), OrganicBug(0.6, 0.05, 2.0)),
        dist=uniform01,
        budget=2.0,
    )
    sched = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.08),))
    report = simulate(sched, config, SimConfig(1 << 17, 3, 0.5))
    for stat in report.rows():
        assert abs(stat.z_score) <= 4.0, stat
    gap = check_equilibrium(sched, config, SimConfig(1 << 17, 4, 0.5))
    psi = expected_benefit_psi(0.5, sched, config)
    assert abs(gap.estimate - psi) <= 4.0 * gap.std_error, (gap, psi)
    inversion = [(low, top) for dtype, low, top in blocks if dtype == np.uint8]
    binomial = [low for dtype, low, top in blocks if dtype != np.uint8]
    assert len(pieces) == 4 and len(inversion) == sum(pieces)  # 2 chunks x 2 calls
    assert min(low for low, _ in inversion) >= 1
    assert max(top for _, top in inversion) == simulation.INVERSION_MAX
    assert binomial and min(binomial) > simulation.INVERSION_MAX


def _exact_binomial(N, F):
    """pmf, P(S <= k) and P(S >= k) of Bin(N, F) in exact rationals."""
    p = Fraction(F)
    pmf = [math.comb(N, k) * p**k * (1 - p) ** (N - k) for k in range(N + 1)]
    below = [sum(pmf[: k + 1]) for k in range(N + 1)]
    above = [sum(pmf[k:]) for k in range(N + 1)]
    return pmf, below, above


@pytest.mark.parametrize("F", [1e-12, 0.3, 1.0 - 1e-12])
def test_rival_law_matches_exact_enumeration(F):
    """Every conditional probability the histogram sampler walks with, on
    both sides of the median, against Fraction enumeration. Where the law is
    cut (a term below TAIL of the mode's) the edge value takes the dropped
    tail's trials, so it reads 1; the dropped mass must be negligible."""
    sides = set()
    for N in range(1, 31):
        values, down, up, split, p_below = simulation._rival_law(N, F)
        pmf, below, above = _exact_binomial(N, F)
        median = next(k for k in range(N + 1) if below[k] >= Fraction(1, 2))
        assert values[split] == median
        assert p_below == pytest.approx(float(below[median - 1]) if median else 0.0, rel=1e-12)
        lo, hi = int(values[0]), int(values[-1])
        assert values.tolist() == list(range(lo, hi + 1))
        assert (below[lo - 1] if lo else 0) + (above[hi + 1] if hi < N else 0) < N * simulation.TAIL
        for i, k in enumerate(range(lo, hi + 1)):
            if i < split:
                sides.add("down")
                exact = pmf[k] / below[k]
                assert down[i] == (1.0 if k == lo else pytest.approx(float(exact), rel=1e-12)), (N, k)
            else:
                sides.add("up")
                exact = pmf[k] / above[k]
                assert up[i] == (1.0 if k == hi else pytest.approx(float(exact), rel=1e-12)), (N, k)
    assert sides == ({"up"} if F < 1e-6 else {"down", "up"})


@pytest.mark.parametrize("q", [1e-12, 0.3, 1.0 - 1e-12, 1.0])
def test_finder_law_matches_exact_enumeration(q):
    """Every tail P(T > k | S = s) the inversion reads, s up to
    INVERSION_MAX, against Fraction enumeration of Bin(s, q): within 1e-12
    relative wherever the exact tail is a normal double, exactly 0 where
    k >= s. At q = 1e-12 the tails beyond k = 25 or so lie below the
    smallest normal double, 2^-1022, so no double holds them to 1e-12; they
    must read below it too, where a uniform (a multiple of 2^-53) meets them
    only at 0. At q = 1 every tail is exactly 1, so T = S."""
    top = simulation.INVERSION_MAX
    tails = simulation._finder_law(np.array([q, 0.5]), top)
    assert tails.shape == (top + 1, top, 2)
    assert np.array_equal(simulation._finder_law(np.array([q]), top)[..., 0], tails[..., 0])
    normal = Fraction(sys.float_info.min)
    hit, d = Fraction(q).as_integer_ratio()
    for s in range(top + 1):
        # d^s P(T = k) = C(s, k) hit^k (d - hit)^(s - k), in integers, summed down from k = s
        exact, tail = [Fraction(0)] * top, 0
        for k in range(s, 0, -1):
            tail += math.comb(s, k) * hit**k * (d - hit) ** (s - k)
            exact[k - 1] = Fraction(tail, d**s)  # P(T > k - 1)
        for k, (got, want) in enumerate(zip(tails[s, :, 0].tolist(), exact)):
            if want == 0 or q == 1.0:
                assert got == want, (s, k)
            elif want >= normal:
                assert abs(Fraction(got) - want) <= want / 10**12, (s, k, got, float(want))
            else:
                assert 0.0 <= got < sys.float_info.min, (s, k, got)


@pytest.mark.parametrize("q", [0.0, 5e-324, 1e-12, 0.3, 1.0 - 1e-12, 1.0])
def test_rival_reach_matches_the_finder_law(q):
    """P(T > 0 | S = s), which the found compare reads, against Fraction
    enumeration of 1 - (1 - q)^s for s up to INVERSION_MAX: within 2 ulps,
    and exactly 0 at s = 0 or q = 0 and 1 at q = 1. It agrees with the
    k = 0 tail of _finder_law to within s + 2 ulps, the table's own rounding
    over s rivals. Larger S read a probability too, and no value of s or q
    raises a warning (log1p(-1) and 0 x -inf are kept out)."""
    top = simulation.INVERSION_MAX
    qs = np.array([q, 0.5])
    reach = simulation._rival_reach(qs, np.arange(top + 1))
    tails = simulation._finder_law(qs, top)[:, 0, :]
    assert reach.shape == (top + 1, 2) and np.array_equal(reach[:, 1], simulation._rival_reach(np.array([0.5]), np.arange(top + 1))[:, 0])
    for s in range(top + 1):
        exact = 1 - (1 - Fraction(q)) ** s
        got = reach[s, 0]
        if s == 0 or q in (0.0, 1.0):
            assert got == exact, s
        assert abs(Fraction(got) - exact) <= 2 * Fraction(np.spacing(float(exact))), (s, got)
        if s:
            assert abs(got - tails[s, 0]) <= (s + 2) * np.spacing(tails[s, 0]), (s, got, tails[s, 0])
    far = simulation._rival_reach(qs, np.array([10**6, 2**62]))
    assert np.all((far >= 0.0) & (far <= 1.0)) and (q < 1.0 or np.all(far[:, 0] == 1.0))


@pytest.mark.parametrize("q", [(0.3, 0.05, 0.9), (1e-12, 1.0, 0.5)])
def test_finder_counts_match_binomial(q):
    """The drawn T against Bin(S, q) for each S up to INVERSION_MAX and
    bug, 2^13 trials each, in one chunk given as its histogram: the pooled
    chi-square test of test_rival_histogram_matches_binomial (z <= 4), and
    T = S at q = 1. No trial with S = 0 gets a block, and every trial with
    S >= 1 gets exactly one."""
    S = (0, 1, 2, 3, 8, 20, simulation.INVERSION_MAX)
    per_s = 1 << 13
    rivals = np.repeat(S, per_s)
    q = np.array(q)
    tails = simulation._finder_law(q, max(S))
    buffer = np.empty(len(q) * simulation.BLOCK)
    finders = np.full((len(q), len(rivals)), -1)
    values, counts = np.unique(rivals, return_counts=True)
    for cols, block in simulation._finder_counts(simulation._chunk_rng(9, 0), values, counts, q, tails, buffer):
        assert block.dtype == np.uint8 and np.all(finders[:, cols] == -1)
        finders[:, cols] = block
    assert np.all(finders[:, :per_s] == -1) and np.all(finders[:, per_s:] >= 0)
    for i, s in enumerate(S[1:], start=1):
        for j, q_j in enumerate(q.tolist()):
            drawn = finders[j, i * per_s : (i + 1) * per_s]
            if q_j == 1.0:
                assert np.all(drawn == s)
            observed = np.bincount(drawn, minlength=s + 1)
            assert len(observed) == s + 1, (s, q_j)
            expected = [math.comb(s, k) * q_j**k * (1 - q_j) ** (s - k) * per_s for k in range(s + 1)]
            assert _chi_square_z(observed, expected) <= 4.0, (s, q_j)


def test_rival_law_keeps_every_term_above_tail():
    """The law's window (12 sd + 30 values either side of the mode) must
    reach every term of at least TAIL of the mode's: the exact log-pmf,
    from lgamma, falls below log(TAIL) just outside the values it keeps,
    from one rival to 10^12 and over the whole spread the histogram takes."""

    def log_pmf(N, F, k):
        return (
            math.lgamma(N + 1) - math.lgamma(k + 1) - math.lgamma(N - k + 1)
            + k * math.log(F) + (N - k) * math.log1p(-F)
        )

    for N in (1, 10, 1000, 10**6, 10**12):
        sd_max = min(simulation.CHUNK / simulation.TRIALS_PER_SD, math.sqrt(N) / 2)
        for sd in np.geomspace(1e-3, sd_max, 13):
            var = float(sd) ** 2 / N
            p = var / (0.5 + math.sqrt(max(0.25 - var, 0.0)))  # N p (1 - p) = sd^2
            for F in (p, 1.0 - p) if p > 2**-53 else (p,):  # 1 - p must not round to 1
                values = simulation._rival_law(N, F)[0]
                top = max(log_pmf(N, F, int(k)) for k in values)
                for k in (int(values[0]) - 1, int(values[-1]) + 1):
                    if 0 <= k <= N:
                        assert log_pmf(N, F, k) - top < math.log(simulation.TAIL) + 0.1, (N, F, k)


def _chi_square_z(observed, expected):
    """Wilson-Hilferty z of a chi-square test over values with expected
    counts of at least 5, pooled into their neighbours otherwise."""
    chi2, df, obs_bin, exp_bin = 0.0, -1, 0, 0.0
    for k in range(len(expected)):
        obs_bin, exp_bin = obs_bin + observed[k], exp_bin + expected[k]
        if exp_bin >= 5.0 and sum(expected[k + 1 :]) >= 5.0 or k == len(expected) - 1:
            chi2, df, obs_bin, exp_bin = chi2 + (obs_bin - exp_bin) ** 2 / exp_bin, df + 1, 0, 0.0
    if df == 0:  # one pooled value: nothing to test
        return 0.0
    return ((chi2 / df) ** (1 / 3) - (1 - 2 / (9 * df))) / math.sqrt(2 / (9 * df))


@pytest.mark.parametrize("N", [1, 8, 63])
@pytest.mark.parametrize("F", [0.3, 0.9])
def test_rival_histogram_matches_binomial(N, F):
    """The drawn S, over 2^18 trials in chunks of 2^16, against Bin(N, F):
    a chi-square test over values with expected counts of at least 5,
    pooled into their neighbours otherwise (Wilson-Hilferty z <= 4)."""
    draw = simulation._rival_sampler(N, F, simulation.CHUNK)
    chunks = []
    for i in range(4):
        values, counts = draw(simulation._chunk_rng(5, i), simulation.CHUNK)
        assert np.all(np.diff(values) > 0) and np.all(counts > 0)
        chunk = np.repeat(values, counts)
        assert chunk.dtype == np.int64 and len(chunk) == simulation.CHUNK
        assert np.all(np.diff(chunk) >= 0)
        chunks.append(chunk)
    rivals = np.concatenate(chunks)
    observed = np.bincount(rivals, minlength=N + 1)
    expected = [float(x) * len(rivals) for x in _exact_binomial(N, F)[0]]
    assert _chi_square_z(observed, expected) <= 4.0


def test_both_rival_samplers_either_side_of_the_cutoff(monkeypatch):
    """At F = 1/2 and full chunks, n - 1 = 4 (CHUNK / TRIALS_PER_SD)^2
    puts the spread of S right at the cutoff, so its histogram is drawn;
    eight more rivals, or half as many trials, push it over, so each trial
    draws its own S. Every run must match every closed form."""
    laws = []

    def spy(rivals, F):
        laws.append(rivals)
        return rival_law(rivals, F)

    rival_law = simulation._rival_law
    monkeypatch.setattr(simulation, "_rival_law", spy)
    rivals = 4 * (simulation.CHUNK // simulation.TRIALS_PER_SD) ** 2
    # q small enough that about n F q = 0.3 rivals find a bug
    bugs = (OrganicBug(0.8, 1e-5, 1.0), OrganicBug(0.6, 2e-5, 2.0))
    sched = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 1e-5),))
    # half a chunk halves the spread the histogram takes, so n - 1 = rivals is wide there
    for extra, trials in ((0, 1 << 17), (8, 1 << 17), (0, simulation.CHUNK // 2)):
        config = GameConfig(n=rivals + extra + 1, bugs=bugs, dist=CostDistribution.uniform(0.0, 1.0), budget=2.0)
        report = simulate(sched, config, SimConfig(trials, 3, 0.5))
        for stat in report.rows():
            assert abs(stat.z_score) <= 4.0, (extra, trials, stat)
    assert laws == [rivals]


def _count_uniforms(monkeypatch):
    """Wraps _chunk_rng as the benchmark's tracer does. Returns a list
    holding the count of uniforms each Generator.random call asks for, and
    a dict from the address of each buffer it fills to that buffer's size."""
    drawn, buffers = [0], {}
    chunk_rng = simulation._chunk_rng

    class Counting:
        def __init__(self, gen):
            self._gen = gen

        def random(self, size=None, *args, **kwargs):
            drawn[0] += 1 if size is None else math.prod(np.atleast_1d(size))
            out = kwargs.get("out")
            if out is not None:
                owner = out if out.base is None else out.base
                buffers[out.__array_interface__["data"][0]] = owner.size
            return self._gen.random(size, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._gen, name)

    monkeypatch.setattr(simulation, "_chunk_rng", lambda *a: Counting(chunk_rng(*a)))
    return drawn, buffers


@pytest.mark.parametrize("trials", [simulation.CHUNK + 17, 100])
def test_uniform_buffer_serves_every_chunk(trials, monkeypatch):
    """One uniform buffer per call: a short last chunk (CHUNK + 17 trials)
    and a lone short chunk (100) read every row within 4 standard errors,
    rerun bit for bit, and draw exactly L + K uniforms a trial, pinned or
    not, all into one buffer. With n = 1 no rival draws any."""
    game = GameConfig(
        n=3,
        bugs=(OrganicBug(0.8, 0.5, 1.0), OrganicBug(0.6, 0.3, 2.0)),
        dist=CostDistribution.uniform(0.0, 1.0),
        budget=2.0,
    )
    sched = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.6),))
    sim = SimConfig(trials, 13, 0.5)
    report = simulate(sched, game, sim)
    for stat in report.rows():
        assert math.isfinite(stat.z_score) and abs(stat.z_score) <= 4.0, stat
    assert simulate(sched, game, sim) == report
    assert check_equilibrium(sched, game, sim) == check_equilibrium(sched, game, sim)

    drawn, buffers = _count_uniforms(monkeypatch)
    alone = game.with_n(1)
    J = len(game.bugs) + len(sched.artificial)
    simulate(sched, alone, sim)
    assert drawn[0] == J * trials and len(buffers) == 1
    drawn[0] = 0
    buffers.clear()
    check_equilibrium(sched, alone, sim)
    assert drawn[0] == J * trials and len(buffers) == 1


@pytest.mark.parametrize("n", [3, simulation.INVERSION_MAX + 5])
def test_finder_uniforms_only_where_rivals_search(n, monkeypatch):
    """With rivals (n = 3, and n - 1 = INVERSION_MAX + 4 at F = 0.94, whose
    S straddles the cutoff) over CHUNK + 17 trials, the kernel draws exactly
    L + K uniforms a trial, plus L + K for each trial in which agent 0
    searches (every trial, when pinned) with 1 <= S <= INVERSION_MAX, and
    none for an idle agent 0, S = 0 or S beyond the cutoff. The finder
    uniforms land in one buffer of at most (L + K) BLOCK floats, apart from
    the kernel's."""
    game = GameConfig(
        n=n,
        bugs=(OrganicBug(0.8, 0.5, 1.0), OrganicBug(0.6, 0.3, 2.0)),
        dist=CostDistribution.uniform(0.0, 1.0),
        budget=2.0,
    )
    sched = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.6),))
    sim = SimConfig(simulation.CHUNK + 17, 13, 0.5 if n == 3 else 0.94)
    J = len(game.bugs) + len(sched.artificial)
    inverted, searched, kinds = [0], [0], set()
    rival_sampler = simulation._rival_sampler
    finder_counts = simulation._finder_counts

    def counting_sampler(*args):
        draw = rival_sampler(*args)

        def counted(rng, m):
            values, counts = draw(rng, m)
            rivals = np.repeat(values, counts)
            inverted[0] += int(np.count_nonzero((rivals >= 1) & (rivals <= simulation.INVERSION_MAX)))
            kinds.update({"none" if s == 0 else "inverted" if s <= simulation.INVERSION_MAX else "binomial" for s in (rivals[0], rivals[-1])})
            return values, counts

        return counted

    def counting_finders(rng, values, counts, *law):
        # the trials handed over are those in which agent 0 searches
        searched[0] += int(counts[(values >= 1) & (values <= simulation.INVERSION_MAX)].sum())
        return finder_counts(rng, values, counts, *law)

    monkeypatch.setattr(simulation, "_rival_sampler", counting_sampler)
    monkeypatch.setattr(simulation, "_finder_counts", counting_finders)
    drawn, buffers = _count_uniforms(monkeypatch)
    for call, pinned in ((simulate, False), (check_equilibrium, True)):
        drawn[0], inverted[0], searched[0] = 0, 0, 0
        buffers.clear()
        call(sched, game, sim)
        assert 0 < searched[0] <= inverted[0] and (searched[0] == inverted[0]) == pinned
        assert drawn[0] == J * sim.trials + J * searched[0], call
        finder_buffer, kernel_buffer = sorted(buffers.values())
        assert finder_buffer <= J * simulation.BLOCK < kernel_buffer == J * simulation.CHUNK
    assert kinds == ({"none", "inverted"} if n == 3 else {"inverted", "binomial"})


@pytest.mark.parametrize("n, threshold, trials, q", [(3, 0.5, 1 << 17, 0.1), (5000, 0.3, 1 << 17, 1e-3), (20, 0.5, 100, 0.1)])
def test_found_compare_takes_one_threshold_a_run_either_way(n, threshold, trials, q, monkeypatch):
    """The found compare reads one threshold a run of equal (search, S),
    either one call a run or expanded to each trial where runs are short;
    forcing either path gives a bit-identical report, on long runs (n = 3),
    hundreds of short ones (n = 5000, where q is small enough that
    P(T > 0 | S) still varies with S) and a short call."""
    bugs = (OrganicBug(0.8, q, 1.0), OrganicBug(0.6, q / 2, 2.0))
    sched = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.8 * q),))
    game = GameConfig(n=n, bugs=bugs, dist=CostDistribution.uniform(0.0, 1.0), budget=2.0)
    sim = SimConfig(trials, 17, threshold)
    reports = []
    for min_run in (0, trials + 1):  # every run long enough, then none
        monkeypatch.setattr(simulation, "MIN_RUN", min_run)
        reports.append(_fields_hex(simulate(sched, game, sim)))
    assert reports[0] == reports[1]


def test_sample_variance_matches_found_variance():
    """The payout's and the designer utility's sample variances estimate
    Var(sum_j a_j X_j), the closed form game._found_variance, on random
    games. A value in a range of width R has (x - mean)^2 <= R^2, so the
    sample variance has standard error at most R sigma / sqrt(trials)."""
    rng = np.random.default_rng(71)
    trials = 1 << 16
    for _ in range(12):
        game = random_game(rng)
        v = tuple(float(rng.uniform(0.0, 0.5)) for _ in game.bugs)
        sched = PrizeSchedule(v=v, artificial=(ArtificialBugDesign(float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.1, 1))),))
        lo = max(game.dist.c_low, 0.0)
        threshold = float(rng.uniform(lo, game.dist.upper_bound()))
        report = simulate(sched, game, SimConfig(trials, int(rng.integers(2**32)), threshold))
        prize = [*v, sched.artificial[0].v_a]
        surplus = [b.w - x for b, x in zip(game.bugs, v)] + [-prize[-1]]
        for stat, weights in ((report.payout, prize), (report.utility, surplus)):
            var = _found_variance(threshold, sched, game, weights)
            width = sum(abs(a) for a in weights)
            sample_var = stat.std_error**2 * trials
            assert abs(sample_var - var) <= 4.0 * width * math.sqrt(var / trials), (stat, var)


FOUND_GAME = dict(n=2, bugs=(OrganicBug(1.0, 1.0, 1.0),), budget=1.0)
FOUND_PRIZES = PrizeSchedule.organic_only((0.5,))


def test_mean_row_without_observations_reads_nan(uniform01):
    # at threshold c_low agent 0 never searches, so marginal_benefit has no data
    config = GameConfig(dist=uniform01, **FOUND_GAME)
    stat = simulate(FOUND_PRIZES, config, SimConfig(256, 1, 0.0)).marginal_benefit
    assert math.isnan(stat.estimate) and math.isnan(stat.std_error) and math.isnan(stat.z_score)
    assert stat.closed_form == expected_benefit_psi(0.0, FOUND_PRIZES, config)


def test_equal_winnings_take_the_bhatia_davis_variance(uniform01):
    """When every observed winning is 0.5 the sample variance is 0; the
    winnings lie in [0, 0.5] with mean Psi, so their variance is at most
    (0.5 - Psi) Psi, and that bound stands in for it."""
    config = GameConfig(dist=uniform01, **FOUND_GAME)
    psi = expected_benefit_psi(0.01, FOUND_PRIZES, config)
    # a rival rarely searches, so most runs see agent 0 win every bug it finds
    equal = 0
    for seed in range(1, 6):
        stat = simulate(FOUND_PRIZES, config, SimConfig(1000, seed, 0.01)).marginal_benefit
        assert stat.closed_form == psi and 0.0 < stat.std_error < math.inf
        if stat.estimate == 0.5:
            equal += 1
            # over the searching trials, at most all 1000 of them
            assert stat.std_error >= math.sqrt((0.5 - psi) * psi / 1000)
            assert 0.0 < stat.z_score < 1.0
    psi = expected_benefit_psi(0.001, FOUND_PRIZES, config)
    for seed in range(1, 6):
        gap = check_equilibrium(FOUND_PRIZES, config, SimConfig(256, seed, 0.001))
        assert 0.0 < gap.std_error < math.inf
        if gap.estimate == 0.5:
            equal += 1
            assert gap.std_error == pytest.approx(math.sqrt((0.5 - psi) * psi / 256), rel=1e-12)
    assert equal >= 5
    # the mean statistic's rule on its own: one weight, ten trials that all paid 0.5;
    # the fallback answers in the squared unit of the scaled weights
    fallback = lambda weights, unit: 0.01 / unit**2  # noqa: E731
    stat = simulation._mean_stat("x", np.array([0.5]), np.array([[10]]), 10, 0.4975, fallback)
    assert (stat.estimate, stat.std_error) == (0.5, math.sqrt(0.01 / 10))


def _payout_law(config, sched, F):
    """Exact law of the total payout, {value: probability}, by enumerating
    which of the n agents search, which organic bugs exist and which agent
    finds which bug."""
    mus = [b.mu for b in config.bugs]
    qs = [b.q for b in config.bugs] + [a.q_a for a in sched.artificial]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    n, L, J = config.n, len(mus), len(qs)
    law: dict[float, float] = {}
    for part in product((False, True), repeat=n):
        p_part = math.prod(F if s else 1.0 - F for s in part)
        for exists in product((False, True), repeat=L):
            p_exists = math.prod(mu if e else 1.0 - mu for mu, e in zip(mus, exists))
            for finds in product((False, True), repeat=n * J):
                p_finds = math.prod(qs[k % J] if f else 1.0 - qs[k % J] for k, f in enumerate(finds))
                pay = sum(
                    prizes[j]
                    for j in range(J)
                    if (j >= L or exists[j]) and any(part[i] and finds[i * J + j] for i in range(n))
                )
                law[pay] = law.get(pay, 0.0) + p_part * p_exists * p_finds
    return law


def test_payout_variance_matches_joint_enumeration(uniform01):
    """The payout's variance holds the cross-bug covariance that shared
    participation creates; a sampler drawing each bug's finder count on its
    own would match every marginal z-test but miss it by > 100 standard errors."""
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(0.9, 0.8, 1.0), OrganicBug(0.7, 0.9, 2.0)),
        dist=uniform01,
        budget=5.0,
    )
    sched = PrizeSchedule(v=(1.0, 1.5), artificial=(ArtificialBugDesign(1.0, 0.9),))
    trials = 1 << 18
    law = _payout_law(config, sched, F=0.5)
    mean = sum(x * p for x, p in law.items())
    var = sum((x - mean) ** 2 * p for x, p in law.items())
    mu4 = sum((x - mean) ** 4 * p for x, p in law.items())
    var_se = math.sqrt((mu4 - var * var) / trials)  # std error of the sample variance

    report = simulate(sched, config, SimConfig(trials, 5, threshold=0.5))
    assert report.payout.closed_form == pytest.approx(mean, rel=1e-12)
    assert abs(report.payout.std_error**2 * trials - var) <= 4.0 * var_se

    detect = [s.closed_form for s in report.detect_unconditional + report.detect_artificial]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    var_independent = sum(v * v * p * (1.0 - p) for v, p in zip(prizes, detect))
    assert abs(var_independent - var) > 100.0 * var_se


def _winnings_law(config, sched, F):
    """Exact law of agent 0's winnings when it searches, {value: probability},
    by enumerating which rivals search, which organic bugs exist, which
    agent finds which bug and, for each bug agent 0 finds, whether it wins
    the uniform draw among the finders."""
    mus = [b.mu for b in config.bugs]
    qs = [b.q for b in config.bugs] + [a.q_a for a in sched.artificial]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    n, L, J = config.n, len(mus), len(qs)
    law: dict[float, float] = {}
    for rivals in product((False, True), repeat=n - 1):
        part = (True, *rivals)
        p_part = math.prod(F if s else 1.0 - F for s in rivals)
        for exists in product((False, True), repeat=L):
            p_exists = math.prod(mu if e else 1.0 - mu for mu, e in zip(mus, exists))
            for finds in product((False, True), repeat=n * J):
                p_finds = math.prod(qs[k % J] if f else 1.0 - qs[k % J] for k, f in enumerate(finds))
                # (prize, agent 0's chance in the draw) per bug agent 0 finds
                draws = [
                    (prizes[j], 1.0 / sum(part[i] and finds[i * J + j] for i in range(n)))
                    for j in range(J)
                    if (j >= L or exists[j]) and finds[j]
                ]
                for wins in product((False, True), repeat=len(draws)):
                    p_wins = math.prod(share if w else 1.0 - share for (_, share), w in zip(draws, wins))
                    x = sum(v for (v, _), w in zip(draws, wins) if w)
                    law[x] = law.get(x, 0.0) + p_part * p_exists * p_finds * p_wins
    return law


def test_win_variance_matches_joint_enumeration(uniform01):
    """marginal_benefit's sample variance, over the trials in which agent 0
    searches, holds the cross-bug covariance of its wins that the shared
    rival count creates: a kernel that paired one bug's wins with another
    trial's rivals would match every marginal z-test but miss the
    enumerated variance, from which independent bugs' variance lies > 50
    standard errors away."""
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(0.9, 0.8, 1.0), OrganicBug(0.7, 0.9, 2.0)),
        dist=uniform01,
        budget=5.0,
    )
    sched = PrizeSchedule(v=(1.0, 1.5), artificial=(ArtificialBugDesign(1.0, 0.9),))
    law = _winnings_law(config, sched, F=0.5)
    mean = sum(x * p for x, p in law.items())
    var = sum((x - mean) ** 2 * p for x, p in law.items())
    mu4 = sum((x - mean) ** 4 * p for x, p in law.items())
    assert mean == pytest.approx(expected_benefit_psi(0.5, sched, config), rel=1e-12)

    sim = SimConfig(1 << 18, 5, threshold=0.5)
    report = simulate(sched, config, sim)
    searching = int(simulation._tallies(sched, config, sim, pinned=False)[2][-1])
    var_se = math.sqrt((mu4 - var * var) / searching)  # std error of the sample variance
    assert abs(report.marginal_benefit.std_error**2 * searching - var) <= 4.0 * var_se

    wins = [s.closed_form * mu for s, mu in zip(report.win_organic + report.win_artificial, (0.9, 0.7, 1.0))]
    prizes = list(sched.v) + [a.v_a for a in sched.artificial]
    var_independent = sum(v * v * p * (1.0 - p) for v, p in zip(prizes, wins))
    assert abs(var_independent - var) > 50.0 * var_se


@pytest.mark.parametrize(
    "v, v_a, F",
    [((1.0, 1.5), 1.0, 0.5), ((2.0, 0.0), 3.0, 0.1), ((0.5, 1.0), 0.7, 0.97)],
)
def test_found_variance_matches_joint_enumeration(v, v_a, F):
    """The closed-form Var(sum_j v_j X_j), from P(j and k found) =
    mu_j mu_k (1 - M_j - M_k + M_jk), against the enumerated law at n = 3."""
    config = GameConfig(
        n=3,
        bugs=(OrganicBug(0.9, 0.8, 1.0), OrganicBug(0.7, 0.9, 2.0)),
        dist=CostDistribution.uniform(0.0, 1.0),
        budget=10.0,
    )
    sched = PrizeSchedule(v=v, artificial=(ArtificialBugDesign(v_a, 0.6),))
    law = _payout_law(config, sched, F)
    mean = sum(x * p for x, p in law.items())
    var = sum((x - mean) ** 2 * p for x, p in law.items())
    assert _found_variance(F, sched, config, [*v, v_a]) == pytest.approx(var, rel=1e-12)


def test_closed_forms_are_the_equilibrium_outcome():
    """Each row's closed form is the number solve_equilibrium reports, to
    the last digit, not a second derivation of it."""

    def closed(stats):
        return tuple(s.closed_form for s in stats)

    rng = np.random.default_rng(61)
    for _ in range(20):
        game = random_game(rng)
        v = tuple(float(rng.uniform(0.0, 0.5)) for _ in game.bugs)
        art = tuple(
            ArtificialBugDesign(float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.1, 1.0)))
            for _ in range(2)
        )
        sched = PrizeSchedule(v=v, artificial=art)
        out = solve_equilibrium(sched, game)
        report = simulate(sched, game, SimConfig(256, 1, out.c_star))
        assert closed(report.detect_unconditional) == out.detect_organic_unconditional
        assert closed(report.detect_conditional) == out.detect_organic_conditional
        assert closed(report.detect_artificial) == out.detect_artificial
        assert report.payout.closed_form == out.expected_payout
        assert report.utility.closed_form == out.designer_utility


def _fields_hex(obj):
    """Every field of a report, nested reports and tuples included, with
    each float as float.hex: equal strings mean bit-identical reports."""
    fields = getattr(type(obj), "__match_args__", None)
    if fields is not None:
        return "{" + "|".join(f"{name}={_fields_hex(getattr(obj, name))}" for name in fields) + "}"
    if isinstance(obj, tuple):
        return "(" + ",".join(_fields_hex(x) for x in obj) + ")"
    if isinstance(obj, float):
        return float(obj).hex()
    if isinstance(obj, int):
        return str(int(obj))
    return repr(obj)


# Games whose runs reach every path of the kernel: the histogram of S (full
# chunks, and the 17-trial last chunk of CHUNK + 17) and the per-trial S (a
# lone 100-trial chunk), inversion and numpy's binomial for the finder counts
# in one chunk (n - 1 = 2 INVERSION_MAX), F = 0 and F = 1, and agent 0 alone
# (n = 1).
_PIN_BUGS = (OrganicBug(0.8, 0.1, 1.0), OrganicBug(0.6, 0.05, 2.0))
_PIN_PRIZES = PrizeSchedule(v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.08),))
_TWO_PLANTED = PrizeSchedule(
    v=(0.4, 0.3), artificial=(ArtificialBugDesign(0.2, 0.08), ArtificialBugDesign(0.1, 0.5))
)
STREAM_PINS = {
    # name: (n, threshold, trials, seed), {call: sha256 of its report}
    "straddle": (
        (2 * simulation.INVERSION_MAX + 1, 0.5, simulation.CHUNK + 17, 3),
        {
            "simulate": "1b3979a24d7874fc2745987efd2630da9586d1ae5988351fb038d1d904ed55a4",
            "check_equilibrium": "2e4b40db65eceae8d139f20b28f77b7c3b55abb24dc58210023625466d150a41",
        },
    ),
    "straddle_lone": (
        (2 * simulation.INVERSION_MAX + 1, 0.5, 100, 4),
        {
            "simulate": "857929ac7320cf06ec9746ec97e8a4f7fcb2d69fa8becb671fcdb3657c1cb128",
            "check_equilibrium": "509a7d4195a8d64dfcd1f4881bb79fde224dfe122d3f4e633645bc3998020239",
        },
    ),
    "wide": (
        (5000, 0.3, simulation.CHUNK + 17, 5),
        {
            "simulate": "abb081477317d01d2546e04902492fa2a093cef1a18a11dfdbdf9a072caa97cf",
            "check_equilibrium": "43aaa35101681da58075da693b982a4cf2239498dfdd59ac8c3a2ceadae47962",
        },
    ),
    "few_rivals": (
        (3, 0.5, simulation.CHUNK + 17, 6),
        {
            "simulate": "17a38824fffc1c23820d69d101b4cd06bcc83b851a5db92854f1c6b60020329d",
            "check_equilibrium": "d318f690017d08d5ff77f6bd070b71b0c963669b8a2cfc4a69305e7c080d926b",
        },
    ),
    "few_rivals_lone": (
        (3, 0.5, 100, 7),
        {
            "simulate": "0a9866bbf2fd92e0745c3cd09caf1f69833ac0131a0c5481156e2fe8b68c42cd",
            "check_equilibrium": "4bdfb33288ed5d79167a8b48daae1efbb7cb95e7e29c6b5ff89cfc6e61b7ea59",
        },
    ),
    "F0": (
        (3, 0.0, simulation.CHUNK + 17, 8),
        {
            "simulate": "13b42efcde772be5a6ae438ab3de203d46dded4934bea76383aa2daa6cb733d6",
            "check_equilibrium": "0d648bf817e683224b8899ed3481b391a2a8fa2d59e08236b0ec30ffa04000a2",
        },
    ),
    "F1": (
        (3, 1.0, simulation.CHUNK + 17, 9),
        {
            "simulate": "315a3d41fbae0f6bdb5c3b18d411d7751f75c65121ea37b165c9dda0dacfabaf",
            "check_equilibrium": "73fdb82bf6ff4e925005bb2e98ed3076c4813a20698b7f36ceb6989cb1ac15bd",
        },
    ),
    "alone": (
        (1, 0.5, simulation.CHUNK + 17, 10),
        {
            "simulate": "a07bef27143a9418a86a0fa12bc4817c123b58e852b4e6a6fb40166892f29acb",
            "check_equilibrium": "6cf7e9cbd47cdfc458ebcdcfa418f806ccfd029a21e18764f914dc20ab3086d9",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(STREAM_PINS))
def test_stream_is_pinned(name, uniform01):
    """simulate and check_equilibrium each reproduce, bit for bit, a report
    taken once at a fixed seed: a kernel change that moves, adds or reshapes
    a draw, or that tallies a trial differently, changes that call's hash.
    On a mismatch the assertion shows the new digests."""
    (n, threshold, trials, seed), pins = STREAM_PINS[name]
    game = GameConfig(n=n, bugs=_PIN_BUGS, dist=uniform01, budget=2.0)
    sim = SimConfig(trials, seed, threshold)
    digests = {
        call.__name__: hashlib.sha256(_fields_hex(call(_PIN_PRIZES, game, sim)).encode()).hexdigest()
        for call in (simulate, check_equilibrium)
    }
    assert digests == pins


@pytest.mark.parametrize("k", [1000, -1000])
@pytest.mark.parametrize(
    "bugs, prizes, n, threshold, trials",
    [
        (_PIN_BUGS, _PIN_PRIZES, 3, 0.5, 4096),
        # every searching trial wins 0.5: simulate's Bhatia-Davis fallback
        (FOUND_GAME["bugs"], FOUND_PRIZES, 2, 0.01, 1000),
        # every trial pays 0.5: the closed-form payout variance stands in
        (FOUND_GAME["bugs"], FOUND_PRIZES, 2, 0.99, 1000),
        # the pinned agent wins 0.5 in every trial: check_equilibrium's fallback
        (FOUND_GAME["bugs"], FOUND_PRIZES, 2, 0.001, 256),
        # two artificial entries: the one schedule whose payout sum regroups
        (_PIN_BUGS, _TWO_PLANTED, 3, 0.5, 1000),
    ],
    ids=["pins", "equal_winnings", "equal_payouts", "pinned_equal_winnings", "two_artificial"],
)
def test_mean_rows_scale_exactly_with_a_power_of_two_unit(uniform01, bugs, prizes, n, threshold, trials, k):
    """With every prize and bug value multiplied by 2^k, at the same threshold
    and seed, simulate's three mean rows and check_equilibrium read exactly
    2^k times their estimate and standard error, and the rows keep their
    z-scores: the variance's squared units neither overflow at 2^1000 nor
    underflow at 2^-1000. The payout and utility closed forms, the
    expected_payout and designer_utility at the threshold, are within
    1e-15 of the exactly rounded sums of their per-entry terms."""
    scale = 2.0**k
    game = GameConfig(n=n, bugs=bugs, dist=uniform01, budget=1.0)
    scaled_game = GameConfig(
        n=n, bugs=tuple(OrganicBug(b.mu, b.q, b.w * scale) for b in bugs), dist=uniform01, budget=1.0
    )
    scaled_prizes = PrizeSchedule(
        v=tuple(v * scale for v in prizes.v),
        artificial=tuple(ArtificialBugDesign(a.v_a * scale, a.q_a) for a in prizes.artificial),
    )
    sim = SimConfig(trials, 1, threshold)
    base, scaled = simulate(prizes, game, sim), simulate(scaled_prizes, scaled_game, sim)
    for a, b in zip(base.rows()[-3:], scaled.rows()[-3:]):
        # as hex strings, so that a nan row (no searching trial) compares equal
        expected = ((a.estimate * scale).hex(), (a.std_error * scale).hex(), a.z_score.hex())
        assert expected == (b.estimate.hex(), b.std_error.hex(), b.z_score.hex()), a.name
    a = check_equilibrium(prizes, game, sim)
    b = check_equilibrium(scaled_prizes, scaled_game, sim)
    assert ((a.estimate * scale).hex(), (a.std_error * scale).hex()) == (b.estimate.hex(), b.std_error.hex())
    found = [s.closed_form for s in base.detect_unconditional + base.detect_artificial]
    paid = [v * f for v, f in zip(prizes.v + tuple(art.v_a for art in prizes.artificial), found)]
    value = [bug.w * f for bug, f in zip(bugs, found)]
    utility = math.fsum(value + [-x for x in paid])
    assert base.payout.closed_form == pytest.approx(math.fsum(paid), rel=1e-15, abs=0.0)
    assert base.utility.closed_form == pytest.approx(utility, rel=1e-15, abs=0.0)
