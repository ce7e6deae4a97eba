"""A combinatorial oracle for the win probability Phi, kept apart from the
package so that it shares no code with the closed form it checks."""

from math import comb

# Largest n for which the enumeration is allowed to run.
ORACLE_MAX_N = 25


def win_prob_phi_oracle(c_hat: float, q: float, n: int, dist) -> float:
    """Direct enumeration oracle for Phi.

    Sums over the number k of the n - 1 rivals that participate and the
    number t of those that also find the bug; the prize then splits uniformly
    among the t + 1 finders.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    if not 1 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle limited to 1 <= n <= {ORACLE_MAX_N}")
    F = dist.cdf(c_hat)
    total = 0.0
    for k in range(n):
        weight = comb(n - 1, k) * F**k * (1.0 - F) ** (n - 1 - k)
        inner = sum(
            comb(k, t) * q**t * (1.0 - q) ** (k - t) / (t + 1) for t in range(k + 1)
        )
        total += weight * inner
    return q * total
