"""Acceptance runs: one test per numbered criterion, with a printed verdict line.

The shared fixture simulates a 2-protocol x 5-rate x 10-seed matrix at N=12
stations, 30 simulated seconds per run, in worker processes, keeping only the
per-run reports. Criterion 1 times two fresh 90 s runs on top of that.
"""
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import pytest

from wlansim.bianchi import solve_fixed_point
from wlansim.cli import ExperimentPlan, run_plan
from wlansim.engine import SimConfig, run_experiment
from wlansim.metrics import MetricsReport, steady_state_start
from wlansim.phy import phy_profile
from wlansim.protocols import (
    BACKOFF,
    CW_MIN,
    HOLD,
    MAX_RETRIES,
    REDUCED,
    ProtocolKind,
    RandomSource,
    count_down,
    fail,
    initial_station,
    probe_busy,
    succeed,
)
from wlansim.schedule import cycle_timer

N = 12
RATES = (6, 11, 12, 24, 48)
SEEDS = tuple(range(1, 11))
MATRIX_DURATION_S = 30.0
WARMUP_S = 5.0
CF = ProtocolKind.CF_MAC.value
CA = ProtocolKind.CSMA_CA.value
# the matrix runs carry the default payload
PAYLOAD_BYTES = SimConfig(n_stations=N, protocol=ProtocolKind.CSMA_CA,
                          rate=RATES[0]).payload_bytes
_WORKERS = max(1, min(8, os.cpu_count() or 1))


@dataclass(frozen=True)
class Cell:
    report: MetricsReport
    steady_us: int | None  # from then on only deterministic successes


def _matrix_cell(key):
    proto, rate, seed = key
    trace, report = run_experiment(SimConfig(
        n_stations=N, protocol=ProtocolKind(proto), rate=rate,
        duration_s=MATRIX_DURATION_S, seed=seed, warmup_s=WARMUP_S))
    return key, Cell(report=report, steady_us=steady_state_start(trace))


def _loss_cell(key):
    n, seed = key
    _, report = run_experiment(SimConfig(
        n_stations=n, protocol=ProtocolKind.CSMA_CA, rate=6,
        duration_s=MATRIX_DURATION_S, seed=seed, warmup_s=WARMUP_S))
    return key, report.aggregate_loss


@pytest.fixture(scope="module")
def matrix():
    keys = [(p, r, s) for p in (CF, CA) for r in RATES for s in SEEDS]
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        return dict(pool.map(_matrix_cell, keys))


@pytest.fixture(scope="module")
def legacy_loss():
    keys = [(n, s) for n in (2, 4, 8) for s in SEEDS]
    with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
        return dict(pool.map(_loss_cell, keys))


def test_criterion_1_steady_throughput_and_runtime():
    measured = {}
    for rate in (6, 48):
        # every rotation carries one 1470 B payload per station, so the
        # aggregate is 11760 bits per per-station slice
        target = 11760 / cycle_timer(1, rate)
        t0 = time.perf_counter()
        _, report = run_experiment(SimConfig(
            n_stations=N, protocol=ProtocolKind.CF_MAC, rate=rate,
            duration_s=90.0, seed=1, warmup_s=WARMUP_S))
        wall = time.perf_counter() - t0
        measured[rate] = (report.aggregate_throughput, target, wall,
                          report.convergence_us)
    ok = all(abs(thr - tgt) / tgt <= 0.02 and wall < 10.0
             for thr, tgt, wall, _ in measured.values())
    detail = "  ".join(f"rate {r}: {thr:.3f} vs {tgt:.3f} Mb/s, {wall:.1f}s wall"
                       for r, (thr, tgt, wall, _) in measured.items())
    print(f"criterion 1 ({'PASS' if ok else 'FAIL'}): {detail}")
    for rate, (thr, tgt, wall, conv) in measured.items():
        assert conv is not None and conv < WARMUP_S * 1e6
        assert wall < 10.0, f"rate {rate}: 90 s run took {wall:.1f} s"
        assert thr == pytest.approx(tgt, rel=0.02)


def test_criterion_2_collision_free_convergence(matrix):
    # reached: the run settles; kept: only deterministic successes follow
    # some instant inside the warmup
    cells = {(r, s): matrix[(CF, r, s)] for r in RATES for s in SEEDS}
    bad = [key for key, cell in cells.items()
           if cell.report.convergence_us is None or cell.steady_us is None
           or cell.steady_us >= WARMUP_S * 1e6]
    total = len(RATES) * len(SEEDS)
    ok = not bad
    print(f"criterion 2 ({'PASS' if ok else 'FAIL'}): collision-free schedule "
          f"reached and kept in {total - len(bad)}/{total} runs")
    assert bad == []


def test_criterion_3_fairness(matrix):
    unfair = [(r, s) for r in RATES for s in SEEDS
              if matrix[(CF, r, s)].report.jfi < 0.99
              or matrix[(CF, r, s)].report.min_max_ratio < 0.95]
    wins = {r: sum(1 for s in SEEDS
                   if matrix[(CA, r, s)].report.min_max_ratio
                   < matrix[(CF, r, s)].report.min_max_ratio)
            for r in RATES}
    ok = not unfair and all(w >= 9 for w in wins.values())
    print(f"criterion 3 ({'PASS' if ok else 'FAIL'}): deterministic runs "
          f"below JFI 0.99 or min/max 0.95: {len(unfair)}; legacy min/max "
          f"lower in {min(wins.values())}..{max(wins.values())} of 10 seeds")
    assert unfair == []
    for r in RATES:
        assert wins[r] >= 9, f"rate {r}: legacy fairness won {10 - wins[r]} seeds"


def test_criterion_4_loss_matches_model(matrix, legacy_loss):
    rows = []
    for n in (2, 4, 8, 12):
        if n == 12:
            losses = [matrix[(CA, 6, s)].report.aggregate_loss for s in SEEDS]
        else:
            losses = [legacy_loss[(n, s)] for s in SEEDS]
        mean = sum(losses) / len(losses)
        p = solve_fixed_point(n)[1]
        rows.append((n, mean, p, abs(mean - p) / p))
    ok = all(rel <= 0.15 for *_, rel in rows)
    detail = "  ".join(f"n={n}: {mean:.4f} vs {p:.4f} ({rel:.1%})"
                       for n, mean, p, rel in rows)
    print(f"criterion 4 ({'PASS' if ok else 'FAIL'}): {detail}")
    for n, mean, p, rel in rows:
        assert rel <= 0.15, f"n={n}: loss {mean:.4f} vs model {p:.4f}"


def test_criterion_5_interarrival_regularity(matrix):
    ragged = []
    for r in RATES:
        cycle = float(cycle_timer(N, r))
        for s in SEEDS:
            rep = matrix[(CF, r, s)].report
            assert rep.convergence_us is not None
            assert rep.convergence_us < WARMUP_S * 1e6, \
                "window no longer post-convergence"
            for i, stats in rep.interarrival.items():
                if stats is None or stats.std != 0.0 or stats.mean != cycle:
                    ragged.append((r, s, i))
    cov = min(stats.std / stats.mean
              for r in RATES for s in SEEDS
              for stats in matrix[(CA, r, s)].report.interarrival.values())
    ok = not ragged and cov > 0.25
    print(f"criterion 5 ({'PASS' if ok else 'FAIL'}): deterministic gap std "
          f"nonzero at {len(ragged)} stations; legacy CoV min {cov:.2f}")
    assert ragged == []
    assert cov > 0.25


def _legacy_us_per_frame(rate):
    """Channel time random backoff spends per delivered frame, in us.

    Bianchi's saturation throughput S = P_s P_tr L / E[slot] for N stations
    at the fixed point tau, with the engine's documented occupancy as the
    slot lengths: an idle slot, a success holding data + SIFS + ACK and a
    collision holding data + a DIFS tail, each followed by the DIFS every
    access waits. The result is L / S.
    """
    profile = phy_profile(rate)
    cfg = SimConfig(n_stations=N, protocol=ProtocolKind.CSMA_CA, rate=rate)
    t_s = cfg.exchange_us + profile.difs
    t_c = cfg.data_us + 2 * profile.difs
    tau, _ = solve_fixed_point(N)
    p_tr = 1.0 - (1.0 - tau) ** N
    p_s = N * tau * (1.0 - tau) ** (N - 1) / p_tr
    busy = (1.0 - p_tr) * profile.slot + p_tr * p_s * t_s \
        + p_tr * (1.0 - p_s) * t_c
    return busy / (p_s * p_tr)


# The README's rates where the stock slice undercuts random backoff's
# per-frame channel time; at 48 Mb/s the 525 us slice exceeds the 474.5 us
# random backoff spends, so legacy contention delivers more there.
STOCK_WINS = {6, 11, 12, 24}


def test_criterion_6_throughput_ordering(matrix):
    bits = 8 * PAYLOAD_BYTES
    model = {r: bits / _legacy_us_per_frame(r) for r in RATES}
    predicted = {r: bits / cycle_timer(1, r) - model[r] for r in RATES}
    margins = {r: [matrix[(CF, r, s)].report.aggregate_throughput
                   - matrix[(CA, r, s)].report.aggregate_throughput
                   for s in SEEDS]
               for r in RATES}
    deviation = {r: sum(matrix[(CA, r, s)].report.aggregate_throughput
                        for s in SEEDS) / len(SEEDS) / model[r] - 1.0
                 for r in RATES}
    wins = {r for r in RATES if predicted[r] > 0}
    flipped = [(r, s) for r in RATES for s, m in zip(SEEDS, margins[r])
               if (m > 0) != (predicted[r] > 0)]
    ok = (wins == STOCK_WINS and not flipped
          and all(abs(d) <= 0.05 for d in deviation.values()))
    detail = "  ".join(f"rate {r}: {predicted[r]:+.3f} / {min(margins[r]):+.3f}"
                       f" / {deviation[r]:+.1%}" for r in RATES)
    print(f"criterion 6 ({'PASS' if ok else 'FAIL'}): predicted / worst-seed "
          f"margin (deterministic minus legacy, Mb/s) / legacy vs model: "
          f"{detail}")
    assert wins == STOCK_WINS, f"model predicts a win at {sorted(wins)}"
    for r in RATES:
        assert abs(deviation[r]) <= 0.05, \
            f"rate {r}: legacy {deviation[r]:+.1%} off the saturation model"
    assert flipped == [], "measured ordering differs from the model's"


def test_criterion_7_solver_accuracy_and_speed():
    oracle = {  # n -> (p, tau), frozen from the dense-grid search
        2: (0.104621105, 0.104620566),
        4: (0.231327231, 0.083961477),
        8: (0.350164350, 0.059719041),
        12: (0.411072411, 0.046991895),
        24: (0.504462504, 0.030065284),
    }
    worst_err = 0.0
    worst_ms = 0.0
    for n, (p_ref, tau_ref) in oracle.items():
        # the fastest of three calls, so one preemption cannot fail the bound
        solve_ms = []
        for _ in range(3):
            t0 = time.perf_counter()
            tau, p = solve_fixed_point(n)
            solve_ms.append((time.perf_counter() - t0) * 1e3)
        worst_ms = max(worst_ms, min(solve_ms))
        worst_err = max(worst_err, abs(p - p_ref), abs(tau - tau_ref))
        assert abs(p - (1.0 - (1.0 - tau) ** (n - 1))) < 1e-10
    ok = worst_err <= 1e-6 and worst_ms < 1.0
    print(f"criterion 7 ({'PASS' if ok else 'FAIL'}): max oracle deviation "
          f"{worst_err:.2e}, slowest solve {worst_ms:.3f} ms")
    assert worst_err <= 1e-6
    assert worst_ms < 1.0


def test_criterion_8_byte_identical_replay(tmp_path):
    def execute(where):
        plan = ExperimentPlan(
            protocols=[ProtocolKind.CF_MAC, ProtocolKind.CSMA_CA],
            rates=[48], stations=[N], seeds=[1, 2],
            duration_s=0.2, warmup_s=0.05, out_dir=where)
        assert run_plan(plan) == 0
        return {p.name: p.read_bytes() for p in where.iterdir()}

    first = execute(tmp_path / "first")
    second = execute(tmp_path / "second")
    ok = first == second
    print(f"criterion 8 ({'PASS' if ok else 'FAIL'}): {len(first)} output "
          f"files replayed byte-identically: {ok}")
    assert sorted(first) == sorted(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def _check_state(st):
    # k is the stage and the retry count: a packet is dropped at MAX_RETRIES
    assert 0 <= st.k < MAX_RETRIES
    assert 0 <= st.b < (CW_MIN << st.k)
    assert st.consec_failures in (0, 1)
    assert st.busy_probes in (0, 1)
    if st.phase != BACKOFF:
        assert st.kind is ProtocolKind.CF_MAC
        assert st.deadline is not None
    else:
        assert st.deadline is None


def _fuzz_step(state, rng, cycle_us):
    # one transition of the rules the engine runs, applied in place
    tx = rng.next_uniform(0, 10 ** 6)
    if state.phase == BACKOFF:
        op = rng.next_uniform(0, 3)
        if op == 0:
            count_down(state, 1)
        elif op == 1:
            count_down(state, rng.next_uniform(2, 32))  # slots banked at once
        elif op == 2:
            succeed(state, tx, cycle_us, rng)
        else:
            fail(state, tx, cycle_us, rng)
        return
    op = rng.next_uniform(0, 2)
    if op == 0:
        succeed(state, tx, cycle_us, rng)
    elif op == 1:
        fail(state, tx, cycle_us, rng)
    else:
        probe_busy(state, state.deadline + rng.next_uniform(0, 40), rng)
        assert state.phase in (HOLD, REDUCED, BACKOFF)
        if state.phase == REDUCED:
            assert 0 <= state.b <= 6


def test_criterion_9_state_machine_fuzz():
    sequences = 100_000
    transitions = 0
    cycle_us = cycle_timer(N, 48)
    for offset, kind in enumerate(ProtocolKind):
        rng = RandomSource(1000 + offset)
        for _ in range(sequences):
            state = initial_station(kind, rng)
            _check_state(state)
            for _ in range(rng.next_uniform(1, 6)):
                _fuzz_step(state, rng, cycle_us)
                _check_state(state)
                transitions += 1
    print(f"criterion 9 (PASS): {3 * sequences} sequences, "
          f"{transitions} transitions, no invariant violation")
    assert transitions >= 3 * sequences
