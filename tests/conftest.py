import numpy as np
import pytest

from bountylab import CostDistribution, GameConfig, OrganicBug


@pytest.fixture
def uniform01():
    return CostDistribution.uniform(0.0, 1.0)


@pytest.fixture
def private_example(uniform01):
    """Single organic bug, mu = q = 1/2, w = 2, two agents, budget 1/2."""
    return GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=2.0),),
        dist=uniform01,
        budget=0.5,
    )


@pytest.fixture
def public_example():
    """Uniform costs on [1, 2], mu = q = 1/2, w = 10, budget 5."""
    return GameConfig(
        n=2,
        bugs=(OrganicBug(mu=0.5, q=0.5, w=10.0),),
        dist=CostDistribution.uniform(1.0, 2.0),
        budget=5.0,
    )


def random_game(rng: np.random.Generator, positive_floor: bool = False) -> GameConfig:
    """Generic random instance for sweep tests, a third each uniform, power
    and exponential."""
    n_bugs = int(rng.integers(1, 4))
    c_low = float(rng.uniform(0.5, 1.5)) if positive_floor else float(rng.uniform(-0.2, 0.5))
    c_high = c_low + float(rng.uniform(0.5, 2.0))
    family = rng.random()
    if family < 1 / 3:
        dist = CostDistribution.uniform(c_low, c_high)
    elif family < 2 / 3:
        dist = CostDistribution.power(c_low, c_high, float(rng.uniform(0.5, 3.0)))
    else:
        dist = CostDistribution.exponential(c_low, float(rng.uniform(0.5, 3.0)))
    bugs = tuple(
        OrganicBug(
            mu=float(rng.uniform(0.2, 1.0)),
            q=float(rng.uniform(0.2, 1.0)),
            w=float(rng.uniform(0.0, 3.0)),
        )
        for _ in range(n_bugs)
    )
    return GameConfig(
        n=int(rng.integers(2, 7)),
        bugs=bugs,
        dist=dist,
        budget=float(rng.uniform(0.2, 2.0)),
    )


def random_public_game(rng: np.random.Generator, nice_floor: bool = False) -> GameConfig:
    """Random instance satisfying the open-program standing assumptions.

    With ``nice_floor`` the cost density at c_low is positive and finite
    (uniform or exponential family). Power laws with alpha far from 1 have a
    vanishing or diverging density at the floor, which slows the finite-n
    approach to the limit enough that fixed-n verdict comparisons at a few
    hundred agents stop being meaningful.
    """
    while True:
        if nice_floor:
            c_low = float(rng.uniform(0.5, 1.5))
            width = float(rng.uniform(0.5, 2.0))
            if rng.random() < 0.5:
                dist = CostDistribution.uniform(c_low, c_low + width)
            else:
                dist = CostDistribution.exponential(c_low, float(rng.uniform(0.5, 3.0)))
            base = random_game(rng, positive_floor=True)
            game = GameConfig(n=base.n, bugs=base.bugs, dist=dist, budget=base.budget)
        else:
            game = random_game(rng, positive_floor=True)
        c_low = game.dist.c_low
        bugs = tuple(
            OrganicBug(mu=b.mu, q=b.q, w=b.w * float(rng.uniform(2.0, 8.0)) * c_low)
            for b in game.bugs
        )
        game = GameConfig(
            n=game.n, bugs=bugs, dist=game.dist, budget=game.budget + 2.0 * c_low
        )
        if sum(b.w * b.mu * b.q for b in game.bugs) >= c_low and game.budget >= c_low:
            return game
