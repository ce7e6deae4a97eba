"""Search-cost distributions.

Every solver in the package consumes costs through this interface: the CDF F,
the density f, the ratio F/f (which must be non-decreasing for the designer's
first-order condition to have a unique fixed point), the quantile function,
and seeded sampling for Monte Carlo runs.

Three families are supported:

* ``uniform`` on [c_low, c_high]
* ``power``:  F(c) = ((c - c_low) / (c_high - c_low))**alpha, alpha > 0
* ``exponential``: rate ``rate`` shifted to start at c_low (c_high = +inf)

The power family with alpha = 1 is the uniform. All three have non-decreasing
F/f analytically (see ``hazard_ratio``), so construction checks only the
parameters.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

UNIFORM = "uniform"
POWER = "power"
EXPONENTIAL = "exponential"

_FAMILIES = (UNIFORM, POWER, EXPONENTIAL)

# Tail mass cut off by the finite stand-in for an infinite upper endpoint that
# the figure grid uses; root solves and the simulation need none.
_EFFECTIVE_TAIL = 1e-12


def _elementwise(method):
    """Evaluate a cost-law method on a float array of at least one dimension
    and give a scalar argument a float back. A scalar goes through a 1-element
    array, not a 0-d one: numpy's 0-d ``**`` can differ in the last bit."""

    @functools.wraps(method)
    def wrapper(self, x):
        arr = np.asarray(x, dtype=float)
        out = method(self, np.atleast_1d(arr))
        return float(out[0]) if arr.ndim == 0 else out

    return wrapper


@dataclass(frozen=True)
class CostDistribution:
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
        return float(self.quantile(1.0 - _EFFECTIVE_TAIL))

    # -- distribution functions --------------------------------------------

    @_elementwise
    def cdf(self, x):
        """F(c); clamps to 0 below c_low and to 1 above c_high."""
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            out = (x - self.c_low) / span
        elif self.kind == POWER:
            out = np.clip((x - self.c_low) / span, 0.0, 1.0) ** self.alpha
        else:
            out = -np.expm1(-self.rate * np.maximum(x - self.c_low, 0.0))
        return np.clip(out, 0.0, 1.0)

    @_elementwise
    def sf(self, x):
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
            t = np.clip((x - self.c_low) / span, 0.0, 1.0)
            with np.errstate(divide="ignore"):
                log_t = np.where(
                    t < 0.5,
                    np.log(t),
                    np.log1p(-np.clip((self.c_high - x) / span, 0.0, 1.0)),
                )
            out = -np.expm1(self.alpha * log_t)
        else:
            out = np.exp(-self.rate * np.maximum(x - self.c_low, 0.0))
        return np.clip(out, 0.0, 1.0)

    @_elementwise
    def pdf(self, x):
        """f(c); zero outside the support."""
        inside = (x >= self.c_low) & (x <= self.c_high)
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            return np.where(inside, 1.0 / span, 0.0)
        if self.kind == POWER:
            t = np.clip((x - self.c_low) / span, 0.0, 1.0)
            with np.errstate(divide="ignore"):
                return np.where(inside, self.alpha / span * t ** (self.alpha - 1.0), 0.0)
        return np.where(inside, self.rate * np.exp(-self.rate * np.maximum(x - self.c_low, 0.0)), 0.0)

    @_elementwise
    def hazard_ratio(self, x):
        """F(c)/f(c) in closed form; returns the limit 0 at and below c_low.

        uniform:      c - c_low
        power:        (c - c_low) / alpha
        exponential:  (exp(rate (c - c_low)) - 1) / rate
        """
        d = np.maximum(np.minimum(x, self.c_high) - self.c_low, 0.0)
        if self.kind == UNIFORM:
            return d
        if self.kind == POWER:
            return d / self.alpha
        return np.expm1(self.rate * d) / self.rate

    @_elementwise
    def quantile(self, x):
        """Inverse CDF; rejects levels outside [0, 1]."""
        if np.any((x < 0.0) | (x > 1.0)) or np.any(np.isnan(x)):
            raise ValueError("quantile level must lie in [0, 1]")
        span = self.c_high - self.c_low
        if self.kind == UNIFORM:
            return self.c_low + x * span
        if self.kind == POWER:
            return self.c_low + span * x ** (1.0 / self.alpha)
        with np.errstate(divide="ignore"):
            return self.c_low - np.log1p(-x) / self.rate

    def sample(self, seed: int, count: int) -> np.ndarray:
        """``count`` iid draws; a pure function of (seed, count)."""
        if count < 0:
            raise ValueError("count must be >= 0")
        rng = np.random.default_rng(seed)
        return np.asarray(self.quantile(rng.random(count)))

    # -- config-file form ---------------------------------------------------

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "c_low": self.c_low}
        obj["c_high"] = self.c_high if math.isfinite(self.c_high) else None
        if self.kind == POWER:
            obj["alpha"] = self.alpha
        if self.kind == EXPONENTIAL:
            obj["rate"] = self.rate
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CostDistribution":
        kind = obj.get("kind")
        if kind == UNIFORM:
            return cls.uniform(obj["c_low"], obj["c_high"])
        if kind == POWER:
            return cls.power(obj["c_low"], obj["c_high"], obj.get("alpha", 1.0))
        if kind == EXPONENTIAL:
            if obj.get("c_high") is not None:
                raise ValueError("exponential distribution takes c_high = null")
            return cls.exponential(obj["c_low"], obj.get("rate", 1.0))
        raise ValueError(f"unknown distribution kind {kind!r}")
