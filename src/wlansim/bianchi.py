"""Bianchi's saturation model of the DCF binary exponential backoff.

Couples the per-station transmission probability tau and the conditional
collision probability p through the fixed point

    tau(p) = 2 / (W + 1 + p * W * sum_{i=0}^{m-1} (2p)^i)
    p      = 1 - (1 - tau)^(n - 1)

where W is the minimum contention window size and m the maximum backoff stage,
CW_MIN and MAX_BACKOFF_STAGE from `protocols`. The simulated stations never
reach stage m: a packet is dropped on its MAX_RETRIES-th failure first, so
their widest window is 2^(MAX_RETRIES - 1) W = 512 slots, not 2^m W.
The summed form of tau is algebraically identical to the usual
2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m)) but stays finite at p = 1/2.
"""
from __future__ import annotations

import numbers
import sys

from .protocols import CW_MIN, MAX_BACKOFF_STAGE

RESIDUAL_TARGET = 1e-10
MAX_ITERATIONS = 200


class FixedPointError(RuntimeError):
    """Raised when bisection fails to meet the residual target."""


def transmission_probability(p: float) -> float:
    """tau as a function of the conditional collision probability."""
    geom = sum((2.0 * p) ** i for i in range(MAX_BACKOFF_STAGE))
    return 2.0 / (1.0 + CW_MIN + p * CW_MIN * geom)


def solve_fixed_point(n: int) -> tuple[float, float]:
    """Solve for (tau, p) among n contenders by bisection on p in [0, 1).

    The residual p - (1 - (1 - tau(p))^(n-1)) is strictly increasing in p,
    negative at 0 for n > 1 and positive near 1, so the root is unique.
    """
    # 1 - tau is raised to the power n - 1, which must fit a float
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) \
            or not 1 <= n <= sys.float_info.max:
        raise ValueError(f"counts must lie in [1, {sys.float_info.max!r}] "
                         f"and be integers, got {n!r}")
    if n == 1:
        return transmission_probability(0.0), 0.0
    lo, hi = 0.0, 1.0 - 1e-15
    p = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        r = p - (1.0 - (1.0 - transmission_probability(p)) ** (n - 1))
        if abs(r) < RESIDUAL_TARGET:
            return transmission_probability(p), p
        if r > 0.0:
            hi = p
        else:
            lo = p
        p = 0.5 * (lo + hi)
    raise FixedPointError(f"no fixed point below residual {RESIDUAL_TARGET} "
                          f"after {MAX_ITERATIONS} bisection steps (n={n})")
