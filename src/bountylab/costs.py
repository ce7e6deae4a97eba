"""Search-cost distributions.

Every solver in the package consumes costs through this interface: the CDF F,
the survival function 1 - F, the density f, the ratio F/f (which must be
non-decreasing for the designer's first-order condition to have a unique
fixed point) and the quantile function. Each takes one float and returns one
float, in plain ``math``: every fixed point evaluates them at one threshold
at a time. ``sample`` returns a numpy array of seeded draws, and imports
numpy only when called. The Monte Carlo kernel in ``simulation`` draws
counts with probability F, not costs, so it uses no samples.

Three families are supported:

* ``uniform`` on [c_low, c_high]
* ``power``:  F(c) = ((c - c_low) / (c_high - c_low))**alpha, alpha > 0
* ``exponential``: rate ``rate`` shifted to start at c_low (c_high = +inf)

The power family with alpha = 1 is the uniform. All three have non-decreasing
F/f analytically (see ``hazard_ratio``), so construction checks only the
parameters.
"""

from __future__ import annotations

import math

from . import _Record

UNIFORM = "uniform"
POWER = "power"
EXPONENTIAL = "exponential"

_FAMILIES = (UNIFORM, POWER, EXPONENTIAL)

# Tail mass cut off by the finite stand-in for an infinite upper endpoint that
# the figure grid uses; root solves and the simulation need none.
_EFFECTIVE_TAIL = 1e-12


def _clip01(v: float) -> float:
    return min(max(v, 0.0), 1.0)


class CostDistribution(_Record):
    """Immutable cost law; safe for concurrent reads.

    ``alpha`` is only meaningful for the power family and ``rate`` only for
    the exponential family; both default to 1.0 and are ignored elsewhere.
    """

    kind: str
    c_low: float
    c_high: float
    alpha: float = 1.0
    rate: float = 1.0

    def __post_init__(self) -> None:
        self.validate()

    # -- constructors ------------------------------------------------------

    @classmethod
    def uniform(cls, c_low: float, c_high: float) -> "CostDistribution":
        return cls(UNIFORM, float(c_low), float(c_high))

    @classmethod
    def power(cls, c_low: float, c_high: float, alpha: float) -> "CostDistribution":
        return cls(POWER, float(c_low), float(c_high), alpha=float(alpha))

    @classmethod
    def exponential(cls, c_low: float, rate: float) -> "CostDistribution":
        return cls(EXPONENTIAL, float(c_low), math.inf, rate=float(rate))

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Reject parameterizations outside the supported families."""
        if self.kind not in _FAMILIES:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if not math.isfinite(self.c_low):
            raise ValueError("c_low must be finite")
        if not self.c_high > self.c_low:
            raise ValueError("c_low < c_high required")
        if not self.c_high > 0:
            raise ValueError("c_high > 0 required")
        if self.kind in (UNIFORM, POWER) and not math.isfinite(self.c_high):
            raise ValueError(f"{self.kind} distribution needs a finite c_high")
        if self.kind == EXPONENTIAL and math.isfinite(self.c_high):
            raise ValueError("exponential distribution has c_high = +inf")
        if self.kind == POWER and not 0 < self.alpha < math.inf:
            raise ValueError("power distribution needs a finite alpha > 0")
        if self.kind == EXPONENTIAL and not 0 < self.rate < math.inf:
            raise ValueError("exponential distribution needs a finite rate > 0")

    # -- support -----------------------------------------------------------

    def upper_bound(self) -> float:
        """Finite upper endpoint; the 1 - 1e-12 quantile if c_high is infinite.

        Used for the figure grid only.
        """
        if math.isfinite(self.c_high):
            return self.c_high
        return self.quantile(1.0 - _EFFECTIVE_TAIL)

    # -- distribution functions --------------------------------------------

    def cdf(self, x: float) -> float:
        """F(c); clamps to 0 below c_low and to 1 above c_high."""
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            out = (x - self.c_low) / span
        elif self.kind == POWER:
            out = _clip01((x - self.c_low) / span) ** self.alpha
        else:
            out = -math.expm1(-self.rate * max(x - self.c_low, 0.0))
        return _clip01(out)

    def sf(self, x: float) -> float:
        """1 - F(c) in closed form, so it keeps its digits where F rounds to 1;
        clamps to 1 below c_low and to 0 above c_high.

        uniform:      (c_high - c) / span
        power:        -expm1(alpha log t), log t taken from the side where it
                      is exact: log((c - c_low) / span) below t = 1/2,
                      log1p(-(c_high - c) / span) above
        exponential:  exp(-rate (c - c_low))
        """
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            out = (self.c_high - x) / span
        elif self.kind == POWER:
            t = _clip01((x - self.c_low) / span)
            if t == 0.0:
                return 1.0
            if t < 0.5:
                log_t = math.log(t)
            else:
                log_t = math.log1p(-_clip01((self.c_high - x) / span))
            out = -math.expm1(self.alpha * log_t)
        else:
            out = math.exp(-self.rate * max(x - self.c_low, 0.0))
        return _clip01(out)

    def pdf(self, x: float) -> float:
        """f(c); zero outside the support."""
        if not self.c_low <= x <= self.c_high:
            return 0.0
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            return 1.0 / span
        if self.kind == POWER:
            t = _clip01((x - self.c_low) / span)
            try:
                return self.alpha / span * t ** (self.alpha - 1.0)
            except (ZeroDivisionError, OverflowError):  # alpha < 1 and t at or near 0
                return math.inf
        return self.rate * math.exp(-self.rate * max(x - self.c_low, 0.0))

    def hazard_ratio(self, x: float) -> float:
        """F(c)/f(c) in closed form; returns the limit 0 at and below c_low.

        uniform:      c - c_low
        power:        (c - c_low) / alpha
        exponential:  (exp(rate (c - c_low)) - 1) / rate
        """
        d = max(min(x, self.c_high) - self.c_low, 0.0)
        if self.kind == UNIFORM:
            return d
        if self.kind == POWER:
            return d / self.alpha
        try:
            return math.expm1(self.rate * d) / self.rate
        except OverflowError:  # an open bracket search can step past rate d = 709.78
            return math.inf

    def quantile(self, u: float) -> float:
        """Inverse CDF; rejects levels outside [0, 1]."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("quantile level must lie in [0, 1]")
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            return self.c_low + u * span
        if self.kind == POWER:
            return self.c_low + span * u ** (1.0 / self.alpha)
        if u == 1.0:
            return math.inf
        return self.c_low - math.log1p(-u) / self.rate

    def sample(self, seed: int, count: int) -> "numpy.ndarray":
        """``count`` iid draws as a float array; a pure function of (seed, count)."""
        import numpy as np

        if count < 0:
            raise ValueError("count must be >= 0")
        levels = np.random.default_rng(seed).random(count).tolist()
        return np.fromiter(map(self.quantile, levels), dtype=float, count=count)
