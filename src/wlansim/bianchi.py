"""Bianchi's saturation model of the DCF binary exponential backoff.

Couples the per-station transmission probability tau and the conditional
collision probability p through the fixed point

    tau(p) = 2 / (W + 1 + p * W * sum_{i=0}^{m-1} (2p)^i)
    p      = 1 - (1 - tau)^(n - 1)

where W is the minimum contention window size and m the maximum backoff stage.
The summed form of tau is algebraically identical to the usual
2(1-2p) / ((1-2p)(W+1) + pW(1-(2p)^m)) but stays finite at p = 1/2.
"""
from __future__ import annotations

from dataclasses import dataclass

RESIDUAL_TARGET = 1e-10
MAX_ITERATIONS = 200


class FixedPointError(RuntimeError):
    """Raised when bisection fails to meet the residual target."""


@dataclass(frozen=True)
class DcfModelParams:
    n: int       # contending stations
    w: int = 16  # minimum contention window size
    m: int = 6   # maximum backoff stage

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.w < 1 or self.m < 0:
            raise ValueError("w must be >= 1 and m >= 0")


def transmission_probability(p: float, w: int, m: int) -> float:
    """tau as a function of the conditional collision probability."""
    geom = sum((2.0 * p) ** i for i in range(m))
    return 2.0 / (1.0 + w + p * w * geom)


def _residual(p: float, params: DcfModelParams) -> float:
    tau = transmission_probability(p, params.w, params.m)
    return p - (1.0 - (1.0 - tau) ** (params.n - 1))


def solve_fixed_point(params: DcfModelParams) -> tuple[float, float]:
    """Solve for (tau, p) by bisection on p in [0, 1).

    The residual p - (1 - (1 - tau(p))^(n-1)) is strictly increasing in p,
    negative at 0 for n > 1 and positive near 1, so the root is unique.
    """
    params.validate()
    if params.n == 1:
        return transmission_probability(0.0, params.w, params.m), 0.0
    lo, hi = 0.0, 1.0 - 1e-15
    p = 0.5 * (lo + hi)
    for _ in range(MAX_ITERATIONS):
        r = _residual(p, params)
        if abs(r) < RESIDUAL_TARGET:
            return transmission_probability(p, params.w, params.m), p
        if r > 0.0:
            hi = p
        else:
            lo = p
        p = 0.5 * (lo + hi)
    raise FixedPointError(f"no fixed point below residual {RESIDUAL_TARGET} "
                          f"after {MAX_ITERATIONS} bisection steps (n={params.n})")
