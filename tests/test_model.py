"""Fixed-point solver tests against an independently computed grid oracle.

The frozen (p, tau) pairs below were produced by a separate dense-grid
search over p in [0, 1): evaluate the residual p - (1 - (1 - tau(p))^(n-1))
on a 10^-9-spaced lattice around the sign change and keep the midpoint.
The solver under test must land within 1e-6 of these values.
"""
import math

import pytest

from wlansim.bianchi import (
    RESIDUAL_TARGET,
    solve_fixed_point,
    transmission_probability,
)

# n -> (p, tau), frozen from the grid oracle.
ORACLE = {
    2: (0.104621105, 0.104620566),
    4: (0.231327231, 0.083961477),
    8: (0.350164350, 0.059719041),
    12: (0.411072411, 0.046991895),
    24: (0.504462504, 0.030065284),
}


@pytest.mark.parametrize("n", sorted(ORACLE))
def test_solver_matches_grid_oracle(n):
    p_ref, tau_ref = ORACLE[n]
    tau, p = solve_fixed_point(n)
    assert abs(p - p_ref) <= 1e-6
    assert abs(tau - tau_ref) <= 1e-6


@pytest.mark.parametrize("n", sorted(ORACLE))
def test_solution_is_a_fixed_point(n):
    tau, p = solve_fixed_point(n)
    assert abs(p - (1.0 - (1.0 - tau) ** (n - 1))) < RESIDUAL_TARGET
    assert math.isclose(tau, transmission_probability(p), rel_tol=1e-12)


def test_single_station_never_collides():
    tau, p = solve_fixed_point(1)
    assert p == 0.0
    # With no collisions the station always transmits from stage zero:
    # tau = 2 / (W + 1).
    assert tau == pytest.approx(2.0 / 17.0)


def test_tau_at_zero_collision_probability():
    assert transmission_probability(0.0) == pytest.approx(2.0 / 17.0)


def test_p_increases_and_tau_decreases_with_population():
    ns = [2, 4, 8, 12, 24, 48]
    solved = [solve_fixed_point(n) for n in ns]
    taus = [tau for tau, _ in solved]
    ps = [p for _, p in solved]
    assert all(a > b for a, b in zip(taus, taus[1:]))
    assert all(a < b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("n", [1, 2, 7, 30, 100])
def test_solution_bounds(n):
    tau, p = solve_fixed_point(n)
    assert 0.0 <= p < 1.0
    assert 0.0 < tau <= 2.0 / 17.0


def test_params_validation():
    with pytest.raises(ValueError):
        solve_fixed_point(0)
