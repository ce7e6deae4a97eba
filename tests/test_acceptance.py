"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
from pathlib import Path

import numpy as np

from bountylab import (
    ArtificialBugDesign,
    CostDistribution,
    GameConfig,
    OrganicBug,
    PrizeSchedule,
    check_equilibrium,
    collapse_artificial,
    commit,
    coin_resolve,
    convergence_table,
    designer_utility,
    detect_prob,
    detect_prob_infinity,
    optimize,
    optimize_public,
    simulate,
    solution_set_distance,
    solve_c0,
    solve_c_tilde,
    solve_equilibrium,
    solve_kappa_a,
    solve_kappa_star,
    solve_kappa_tilde,
    verify_reveal,
    win_prob_phi,
    write_commitment_file,
    write_reveal_file,
    RevealRecord,
    SimConfig,
)
from conftest import random_game, random_public_game
from phi_oracle import win_prob_phi_oracle

DATA = Path(__file__).parent / "data"


def _report(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number}: {description}"


def _private_example(budget=0.5):
    return GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=2.0),),
        dist=CostDistribution.uniform(0.0, 1.0),
        budget=budget,
    )


def _public_example(budget=5.0):
    return GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=10.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=budget,
    )


def test_criterion_1_private_golden_values():
    config = _private_example()
    ok = abs(solve_c_tilde(config) - 2 / 9) <= 1e-9
    ok &= abs(solve_c0(0.5, config).c_0 - 4 / 33) <= 1e-9
    for budget in (0.1, 0.5, 1.0, 2.0):
        closed = 1.0 / (4.0 / budget + 0.25)
        ok &= abs(solve_c0(budget, config).c_0 - closed) <= 1e-9
    ok &= abs(designer_utility(4 / 33, config) - 32 / 363) <= 1e-12
    ok &= abs(designer_utility(2 / 9, config) - 1 / 9) <= 1e-12
    ok &= abs(optimize(config).gain - 25 / 1089) <= 1e-12  # 1/9 - 32/363

    lo, hi = 0.5, 1.0  # beneficial at 0.5, not at 1.0; bisect the switch
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if optimize(_private_example(mid)).beneficial:
            lo = mid
        else:
            hi = mid
    ok &= abs(0.5 * (lo + hi) - 16 / 17) <= 1e-8
    _report(1, "closed-form private-program values, the gain and the 16/17 budget cutoff", ok)


def test_criterion_2_identity_and_oracle():
    rng = np.random.default_rng(2024)
    dists = [
        CostDistribution.uniform(0.0, 1.0),
        CostDistribution.power(-0.5, 1.5, 2.0),
        CostDistribution.exponential(0.2, 1.0),
    ]
    ok = True
    for _ in range(1000):
        dist = dists[rng.integers(len(dists))]
        c_hat = float(rng.uniform(dist.c_low, min(dist.upper_bound(), dist.c_low + 3)))
        q = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 60))
        lhs = detect_prob(c_hat, q, n, dist)
        rhs = n * dist.cdf(c_hat) * win_prob_phi(c_hat, q, n, dist)
        ok &= abs(lhs - rhs) <= 1e-12
    uniform = dists[0]
    for n in range(1, 9):
        for q in np.arange(0.1, 1.01, 0.1):
            for c_hat in (0.0, 0.25, 0.5, 1.0):
                closed = win_prob_phi(c_hat, float(q), n, uniform)
                oracle = win_prob_phi_oracle(c_hat, float(q), n, uniform)
                ok &= abs(closed - oracle) <= 1e-12
    _report(2, "detection identity P = n F Phi and the enumeration oracle", ok)


def test_criterion_3_one_artificial_bug_suffices():
    rng = np.random.default_rng(33)
    ok = True
    for _ in range(50):
        config = random_game(rng)
        v = tuple(rng.uniform(0.0, 0.3, len(config.bugs)))
        three = PrizeSchedule(
            v=v,
            artificial=tuple(
                ArtificialBugDesign(float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.05, 1.0)))
                for _ in range(3)
            ),
        )
        one = collapse_artificial(three, config)
        ok &= len(one.artificial) == 1
        before = solve_equilibrium(three, config)
        after = solve_equilibrium(one, config)
        ok &= abs(before.c_star - after.c_star) <= 1e-9
        ok &= abs(before.designer_utility - after.designer_utility) <= 1e-9
    _report(3, "collapsing three artificial bugs to one preserves the outcome", ok)


def test_criterion_4_public_program():
    config = _public_example()
    prizes = PrizeSchedule.organic_only((5.0,))
    ok = abs(solve_kappa_tilde(config) - 2.0 * math.log(2.5)) <= 1e-9
    ok &= abs(solve_kappa_a(5.0, config) - 4.9651142317442763) <= 1e-6
    report = optimize_public(config)
    ok &= report.kappa_hat_star == report.kappa_tilde
    rows = convergence_table(config, prizes, [1000])
    kappa = rows[0]["kappa_star"]
    ok &= rows[0]["abs_nF_minus_kappa"] < 0.05
    ok &= abs(rows[0]["P_n_bug_1"] - detect_prob_infinity(0.5, kappa)) < 0.01
    _report(4, "open-program limits: kappa values, optimum, convergence at n=1000", ok)


def test_criterion_5_solution_set_convergence():
    config = _public_example()
    ok = True
    for q_a in (1.0 / 3.0, 0.5, 1.0):
        distances = []
        for n in (5, 20, 100, 500):
            result = solution_set_distance(config, n, q_a)
            ok &= result.feasible
            distances.append(result.distance)
        ok &= all(b < a for a, b in zip(distances, distances[1:]))
    _report(5, "optimal prize sets approach their limit monotonically", ok)


def test_criterion_6_verdict_equivalence():
    rng = np.random.default_rng(66)
    ok = True
    checked = 0
    while checked < 20:
        config = random_public_game(rng, nice_floor=True)
        verdict = optimize_public(config)
        if abs(verdict.margin) <= 0.05:
            continue
        for n in (200, 500, 2000):
            ok &= optimize(config.with_n(n)).beneficial == verdict.beneficial
        checked += 1
    _report(6, "finite-n and limiting usefulness verdicts agree on 20 configs", ok)


def test_criterion_7_monte_carlo_validation():
    config = _private_example()
    canonical = PrizeSchedule(v=(0.0,), artificial=(ArtificialBugDesign(0.25, 1.0),))
    out = solve_equilibrium(canonical, config)
    sim = SimConfig(trials=10**6, seed=715, threshold=out.c_star)
    report = simulate(canonical, config, sim)
    u = report.utility
    ok = abs(u.estimate - 1 / 9) <= 4.0 * u.std_error
    identity = config.n * out.participation * out.c_star
    p = report.payout
    ok &= abs(p.estimate - identity) <= 4.0 * p.std_error
    gap = check_equilibrium(canonical, config, sim)
    ok &= gap.gap <= 4.0 * gap.std_error
    _report(7, "million-trial Monte Carlo agrees with the closed forms", ok)


def test_criterion_8_distribution_free_limit():
    prizes = PrizeSchedule.organic_only((5.0,))
    kappas = []
    for dist in (CostDistribution.uniform(1.0, 2.0), CostDistribution.power(1.0, 2.0, 2.0)):
        config = GameConfig(n=2, bugs=(OrganicBug(0.5, 0.5, 10.0),), dist=dist, budget=5.0)
        kappas.append(solve_kappa_star(prizes, config).kappa_star)
    _report(8, "limiting participation depends only on the lowest cost", abs(kappas[0] - kappas[1]) <= 1e-10)


def test_criterion_9_credibility_protocol(tmp_path):
    payload = (DATA / "payload.bin").read_bytes()
    record = commit(payload, salt=bytes(32), created_at="2026-01-01T00:00:00Z")
    ok = verify_reveal(record, RevealRecord(salt=bytes(32), payload=payload))
    for i in range(len(payload)):
        tampered = bytearray(payload)
        tampered[i] ^= 0x01
        ok &= not verify_reveal(record, RevealRecord(salt=bytes(32), payload=bytes(tampered)))
    rng = np.random.default_rng(9)
    draws = 10**4
    hits = sum(coin_resolve(rng.bytes(32), rng.bytes(16), 0.5) for _ in range(draws))
    ok &= abs(hits / draws - 0.5) <= 4.0 * (0.25 / draws) ** 0.5
    commitment_path = tmp_path / "commitment.txt"
    reveal_path = tmp_path / "reveal.txt"
    write_commitment_file(record, commitment_path)
    write_reveal_file(bytes(32), "payload.bin", reveal_path)
    ok &= commitment_path.read_bytes() == (DATA / "golden_commitment.txt").read_bytes()
    ok &= reveal_path.read_bytes() == (DATA / "golden_reveal.txt").read_bytes()
    _report(9, "commit-reveal round trip, tamper detection, coin, exact files", ok)


def test_criterion_10_monotone_comparative_statics():
    rng = np.random.default_rng(1010)
    ok = True
    grid = np.linspace(0.0, 1.0, 10)
    for _ in range(20):
        config = random_game(rng)
        base_v = tuple(rng.uniform(0.05, 0.6, len(config.bugs)))

        def c_star(v=base_v, art=ArtificialBugDesign(0.2, 0.5), bugs=config.bugs):
            cfg = GameConfig(n=config.n, bugs=bugs, dist=config.dist, budget=config.budget)
            return solve_equilibrium(PrizeSchedule(v=v, artificial=(art,)), cfg).c_star

        b0 = config.bugs[0]
        sweeps = {
            "v": lambda t: c_star(v=(base_v[0] + t,) + base_v[1:]),
            "mu": lambda t: c_star(
                bugs=(OrganicBug(min(1.0, 0.05 + 0.95 * t), b0.q, b0.w),) + config.bugs[1:]
            ),
            "q": lambda t: c_star(
                bugs=(OrganicBug(b0.mu, min(1.0, 0.05 + 0.95 * t), b0.w),) + config.bugs[1:]
            ),
            "v_a": lambda t: c_star(art=ArtificialBugDesign(t, 0.5)),
            "q_a": lambda t: c_star(art=ArtificialBugDesign(0.2, t)),
        }
        for sweep in sweeps.values():
            values = [sweep(float(t)) for t in grid]
            ok &= all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    _report(10, "equilibrium threshold is monotone in every incentive parameter", ok)
