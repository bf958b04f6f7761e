"""Binomial likelihood intervals for Monte Carlo failure counts.

The reported uncertainty on a rate estimate is the set of rates whose
binomial likelihood stays within a fixed factor of the maximum
likelihood; unlike normal approximations it behaves sensibly at zero
observed failures.
"""

from __future__ import annotations

import math

from .circuits import CircuitError

RELATIVE_PRECISION = 1e-10


def likelihood_interval(k: int, n: int,
                        factor: float = 1000.0) -> tuple[float, float]:
    """Rates whose likelihood is within ``factor`` of the maximum.

    The interval is {p : L(p) >= L(k/n) / factor} for the binomial
    likelihood L(p) = p^k (1-p)^(n-k).  Endpoints at k = 0 or k = n are
    closed form; otherwise they are bisected to 1e-10 of their distance
    from the nearer of 0 and 1 (up to the float spacing near 1).  The
    upper endpoint is one minus the lower one for n - k failures.
    """
    if n <= 0:
        raise CircuitError("need at least one sample")
    if not 0 <= k <= n:
        raise CircuitError(f"failure count {k} outside [0, {n}]")
    if factor <= 1.0:
        raise CircuitError("likelihood factor must exceed 1")
    return _lower(k, n, factor)[0], _lower(n - k, n, factor)[1]


def _lower(k: int, n: int, factor: float) -> tuple[float, float]:
    """Lower endpoint p for k failures in n samples, as (p, 1 - p);
    bisected in p, or in 1 - p if p > 1/2, so both stay precise."""
    if k == 0:
        return 0.0, 1.0
    if k == n:
        gap = -math.expm1(-math.log(factor) / n)
        return 1.0 - gap, gap

    def log_l(x, a, b):            # log of x^a (1-x)^b
        return a * math.log(x) + b * math.log1p(-x)

    p_hat = k / n
    cut = log_l(p_hat, k, n - k) - math.log(factor)
    flip = p_hat > 0.5 and log_l(0.5, k, n - k) < cut
    a, b = (n - k, k) if flip else (k, n - k)
    inside = 1.0 - p_hat if flip else min(p_hat, 0.5)
    outside = 0.5 if flip else p_hat * 1e-18
    while abs(inside - outside) > RELATIVE_PRECISION * min(inside, outside):
        mid = 0.5 * (inside + outside)
        if log_l(mid, a, b) >= cut:
            inside = mid
        else:
            outside = mid
    x = 0.5 * (inside + outside)
    return (1.0 - x, x) if flip else (x, 1.0 - x)
