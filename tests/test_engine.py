"""Engine tests: mid-air joiners, determinism, timing, config checks, the
closed-form tail, the noisy round robin stepper, the entry they share and
the grid-only loop against the general one, and the invariant checks."""
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import numpy as np
import pytest

from wlansim import engine
from wlansim.engine import ConfigError, SimConfig, run_experiment
from wlansim.metrics import compute_report, steady_state_start
from wlansim.phy import UnsupportedRateError, phy_profile
from wlansim.protocols import (DEADLINE, HOLD, Mode, ProtocolKind,
                               RandomSource, StationState)
from wlansim.schedule import ScheduleRow, ScheduleTable, cycle_timer
from wlansim.trace import (_DTYPES, MODE_CODE, MODES, OUTCOME_CODE, OUTCOMES,
                           Outcome, TraceLog)

COLUMNS = ("station", "start", "outcome", "mode")
S, C, E = (OUTCOME_CODE[o] for o in
           (Outcome.SUCCESS, Outcome.COLLISION, Outcome.CCA_ERROR))


def config(**kw):
    base = dict(n_stations=2, protocol=ProtocolKind.CSMA_CA, rate=48,
                duration_s=0.3, seed=7, warmup_s=0.05)
    base.update(kw)
    return SimConfig(**base)


def assert_same_trace(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def assert_wellformed(trace):
    cfg = trace.config
    assert ((0 <= trace.start) & (trace.start < cfg.duration_us)).all()
    # rows are in (start, station) order
    order = np.lexsort((trace.station, trace.start))
    assert np.array_equal(order, np.arange(len(order)))
    # successful transmissions never overlap anything else on the channel;
    # every frame lasts `cfg.data_us`, so a frame that overlaps a later one
    # overlaps the next one
    overlap = trace.start[1:] < trace.start[:-1] + cfg.data_us
    success = trace.outcome == S
    assert not (overlap & (success[:-1] | success[1:])).any()


# -- mid-air joiners ----------------------------------------------------------

DATA, SIFS_ACK, DIFS, T0 = 500, 60, 30, 100
LONE = ([(T0, 0)], [S])             # a lone success started at t0
PAIR = ([(T0, 0), (T0, 1)], [C, C])  # a collision started at t0


@pytest.mark.parametrize("before, start, codes, release", [
    # a joiner during a lone success's data frame wrecks it: the victim
    # collides, the joiner is blamed on its CCA, and the pair releases at
    # the joiner's end plus DIFS
    pytest.param(LONE, 300, [C, E], 800 + DIFS, id="joiner_wrecks_success"),
    # no data frame is on the air in the SIFS + ACK tail: a clean success
    pytest.param(LONE, 620, [S, S], 1120 + SIFS_ACK, id="success_tail"),
    # half-open frames: starting exactly when the last one ends is no overlap
    pytest.param(LONE, 600, [S, S], 1100 + SIFS_ACK,
                 id="back_to_back_is_clean"),
    pytest.param(PAIR, 400, [C, C, E], 900 + DIFS, id="onto_collision"),
    # an earlier joiner that is hit is blamed on its own CCA sample too
    pytest.param(([(T0, 0), (620, 1)], [S, S]), 700, [S, E, E], 1200 + DIFS,
                 id="onto_earlier_joiner"),
    pytest.param(PAIR, 610, [C, C, S], 1110 + SIFS_ACK, id="collision_tail"),
])
def test_join(before, start, codes, release):
    txs, got = list(before[0]), list(before[1])
    assert engine._join(txs, got, T0, start, 9, DATA, DATA + SIFS_ACK,
                        DIFS) == release
    assert txs == before[0] + [(start, 9)]
    assert got == codes


# -- single station -----------------------------------------------------------

@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_single_station_never_collides(protocol):
    trace, report = run_experiment(config(n_stations=1, protocol=protocol,
                                          duration_s=0.2, warmup_s=0.02))
    assert len(trace.start), "station never transmitted"
    assert (trace.outcome == S).all()
    assert report.aggregate_loss == 0.0
    assert_wellformed(trace)


def test_single_station_cfmac_throughput_matches_cycle():
    # one station on a 525 us rotation moves 11760 bits per cycle: 22.4 Mb/s
    _, report = run_experiment(config(n_stations=1, protocol=ProtocolKind.CF_MAC,
                                      duration_s=0.3, warmup_s=0.05))
    assert report.aggregate_throughput == pytest.approx(11760 / 525, rel=0.01)


# -- determinism --------------------------------------------------------------

def test_same_seed_reproduces_the_run(tmp_path):
    cfg = config(n_stations=5, protocol=ProtocolKind.CF_MAC, rate=12, seed=23)
    trace_a, report_a = run_experiment(cfg)
    trace_b, report_b = run_experiment(config(n_stations=5, rate=12, seed=23,
                                              protocol=ProtocolKind.CF_MAC))
    assert_same_trace(trace_a, trace_b)
    assert report_a == report_b
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_a.write_csv(a)
    trace_b.write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_diverge():
    t1, _ = run_experiment(config(seed=1, duration_s=0.1, warmup_s=0.01))
    t2, _ = run_experiment(config(seed=2, duration_s=0.1, warmup_s=0.01))
    assert not all(np.array_equal(getattr(t1, name), getattr(t2, name))
                   for name in COLUMNS)


# -- timing -------------------------------------------------------------------

@pytest.mark.parametrize("rate,seed", [(6, 3), (11, 3), (48, 9)])
def test_first_transmission_lands_on_the_slot_grid(rate, seed):
    profile = phy_profile(rate)
    draws = RandomSource(seed)
    b = [draws.next_uniform(0, 15) for _ in range(2)]
    trace, _ = run_experiment(config(rate=rate, seed=seed, duration_s=0.05,
                                     warmup_s=0.0))
    assert trace.start[0] == profile.difs + min(b) * profile.slot


def test_deterministic_cadence_is_exact():
    trace, report = run_experiment(config(n_stations=3,
                                          protocol=ProtocolKind.CF_MAC,
                                          rate=24, duration_s=0.5,
                                          warmup_s=0.05, seed=5))
    assert report.convergence_us is not None
    cycle = cycle_timer(3, 24)
    assert cycle == 3 * 788
    for i in range(3):
        starts = trace.start[(trace.station == i)
                             & (trace.start >= report.convergence_us)]
        assert len(starts) > 100
        assert set(np.diff(starts).tolist()) == {cycle}
    # collisions end at convergence; the last legacy-mode success may come
    # later (a station's first success happens in legacy mode)
    settled_at = steady_state_start(trace)
    assert settled_at is not None and settled_at >= report.convergence_us
    settled = trace.start >= settled_at
    assert settled.any()
    assert (trace.mode[settled] == MODE_CODE[Mode.DETERMINISTIC]).all()
    assert (trace.outcome[settled] == S).all()


def test_tallies_and_overlap_invariants_under_contention():
    trace, _ = run_experiment(config(n_stations=6, rate=12, seed=13))
    assert (trace.outcome == C).any()
    assert_wellformed(trace)


def test_trace_csv_round_trip(tmp_path):
    trace, _ = run_experiment(config(n_stations=3, duration_s=0.1,
                                     warmup_s=0.01, seed=4))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    assert_same_trace(TraceLog.read_csv(path, trace.config), trace)


def test_trace_survives_read_and_rebuild_byte_for_byte(tmp_path):
    # heavy CCA noise gives every outcome and both modes
    trace, report = run_experiment(config(
        n_stations=4, protocol=ProtocolKind.CF_MAC, cca_error_prob=0.5,
        duration_s=0.2, warmup_s=0.02, seed=11))
    assert set(trace.outcome.tolist()) == set(range(len(OUTCOMES)))
    assert set(trace.mode.tolist()) == set(range(len(MODES)))
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    trace.write_csv(first)
    back = TraceLog.read_csv(first, trace.config)
    assert_same_trace(back, trace)
    back.write_csv(second)
    assert second.read_bytes() == first.read_bytes()
    assert compute_report(back) == report


def test_run_shorter_than_one_attempt_leaves_an_empty_trace(tmp_path):
    # nobody can transmit before DIFS has passed
    trace, report = run_experiment(config(duration_s=1e-5, warmup_s=0.0))
    assert len(trace.start) == 0
    assert report.per_station_throughput == [0.0, 0.0]
    assert report.interarrival == {0: None, 1: None}
    assert report.per_station_loss == [None, None]
    assert (report.jfi, report.aggregate_loss, report.convergence_us) == (
        None, None, 0)
    trace.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == \
        b"station,start_us,end_us,outcome,mode\r\n"


def test_trace_carries_its_run_config_unchanged():
    cfg = config()
    trace, _ = run_experiment(cfg)
    assert trace.config is cfg
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 8


def test_report_matches_trace():
    trace, report = run_experiment(config(n_stations=4, rate=24, seed=6))
    assert report == compute_report(trace)


# -- configuration ------------------------------------------------------------

def test_config_rejections():
    # never run 2**31 stations: a run allocates one record per station
    cases = [dict(n_stations=0), dict(n_stations=2**31), dict(duration_s=0.0),
             dict(warmup_s=0.3, duration_s=0.3), dict(warmup_s=-0.1),
             dict(cca_error_prob=1.5), dict(cca_error_prob=-0.1),
             dict(payload_bytes=0), dict(payload_bytes=2305), dict(seed=-1),
             # whole microseconds: no run at all, a warmup that rounds up to
             # the end of the run
             dict(duration_s=1e-7, warmup_s=0.0),
             dict(duration_s=1.4e-6, warmup_s=1e-6)]
    # a config refuses itself when it is built
    for kw in cases:
        with pytest.raises(ConfigError):
            config(**kw)
    with pytest.raises(UnsupportedRateError):
        config(rate=7)
    config(payload_bytes=2304)  # one full 802.11 MSDU
    config(n_stations=2**31 - 1)  # the int32 station column's top


def test_schedule_floor_enforced():
    # the per-station slice must cover data + SIFS + ACK + DIFS
    floor = config().exchange_us + 28
    assert floor == 354
    short = ScheduleTable(rows={48: ScheduleRow(share_us=300.0, epsilon_us=25.0)})
    with pytest.raises(ConfigError):
        config(protocol=ProtocolKind.CF_MAC, schedule=short)
    exact = ScheduleTable(rows={48: ScheduleRow(share_us=329.0, epsilon_us=25.0)})
    config(protocol=ProtocolKind.CF_MAC, schedule=exact)


@pytest.mark.parametrize("n", [1, 2])
def test_schedule_ceiling_keeps_deadlines_in_int64(monkeypatch, n):
    # a start below the end of the run plus two cycles must fit int64:
    # the longest whole slice is accepted and runs without a warning (every
    # warning is an error here), one microsecond more is refused
    def cf_mac(total):
        return config(n_stations=n, protocol=ProtocolKind.CF_MAC,
                      schedule=ScheduleTable(rows={48: ScheduleRow(
                          share_us=total, epsilon_us=0)}))

    duration_us = config().duration_us
    longest = (2 ** 63 - duration_us) // (2 * n)
    with pytest.raises(ConfigError, match="overflows int64 deadlines"):
        cf_mac(longest + 1)
    cfg = cf_mac(longest)
    fired = spy_on_tail(monkeypatch)
    trace, _ = run_experiment(cfg)
    # each station succeeds once, then waits past the end for its deadline
    assert fired[-1]
    assert np.bincount(trace.station[trace.outcome == S]).tolist() == [1] * n
    # the latest deadline any run of this config can set: the last start
    # before the end plus one cycle
    cycle = n * longest
    tail = engine._periodic_tail(entries((duration_us - 1 + cycle, 0)), cycle,
                                 cfg.exchange_us, duration_us, empty_columns())
    assert [len(column) for column in tail] == [0] * 4


def test_run_experiment_validates_first():
    # run_experiment checks nothing itself: no path, `replace` included,
    # hands it a config that was not checked when it was built
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(config(), n_stations=0))


# -- closed-form periodic tail -------------------------------------------------

def entries(*pairs):
    """The live timeline entries of stations waiting for the deadlines of
    the (deadline, station) pairs."""
    return [(d, DEADLINE, i) for d, i in pairs]


def empty_columns():
    return [array(np.dtype(dt).char) for dt in _DTYPES.values()]


def spy_on_tail(monkeypatch, fire=True):
    """Count the calls of the engine's periodic-tail helper that emitted a
    tail; with fire=False the helper is patched out and the loop runs to
    the end of the run."""
    fired = []
    real = engine._periodic_tail

    def helper(*args):
        tail = real(*args) if fire else None
        fired.append(tail is not None)
        return tail

    monkeypatch.setattr(engine, "_periodic_tail", helper)
    return fired


def test_periodic_tail_closed_form():
    # two stations 500 us apart on a 1000 us cycle with 400 us exchanges;
    # a start at the end of the run is past it
    columns = engine._periodic_tail(entries((600, 1), (100, 0)), 1000, 400,
                                    2600, empty_columns())
    station, start, outcome, mode = (c.tolist() for c in columns)
    assert list(zip(station, start)) == [
        (0, 100), (1, 600), (0, 1100), (1, 1600), (0, 2100)]
    assert {(OUTCOMES[o], MODES[m]) for o, m in zip(outcome, mode)} == {
        (Outcome.SUCCESS, Mode.DETERMINISTIC)}
    assert np.bincount(station).tolist() == [3, 2]
    # the loop's rows come first, as they were
    head = empty_columns()
    for column, value in zip(head, (1, 40, C, MODE_CODE[Mode.LEGACY])):
        column.append(value)
    joined = engine._periodic_tail(entries((600, 1), (100, 0)), 1000, 400,
                                   2600, head)
    assert [c.tolist() for c in joined] == [
        [h] + c.tolist() for h, c in zip((1, 40, C, MODE_CODE[Mode.LEGACY]),
                                         columns)]
    # gaps of exactly one exchange, the wrap included, still qualify
    assert engine._periodic_tail(entries((100, 0), (500, 1)), 800, 400,
                                 2600, empty_columns()) is not None
    # a gap shorter than an exchange, inside the cycle or across its wrap,
    # is not periodic
    assert engine._periodic_tail(entries((100, 0), (499, 1)), 1000, 400,
                                 2600, empty_columns()) is None
    assert engine._periodic_tail(entries((100, 0), (800, 1)), 1000, 400,
                                 2600, empty_columns()) is None


@pytest.mark.parametrize("n", [1, 2, 12, 50])
@pytest.mark.parametrize("rate", [6, 11, 12, 24, 48])
def test_periodic_tail_matches_the_loop(monkeypatch, rate, n):
    for seed in (1, 2, 3):
        cfg = config(n_stations=n, protocol=ProtocolKind.CF_MAC, rate=rate,
                     duration_s=2.0, warmup_s=0.1, seed=seed)
        with monkeypatch.context() as m:
            spy_on_tail(m, fire=False)
            oracle, _ = run_experiment(cfg)
        with monkeypatch.context() as m:
            fired = spy_on_tail(m)
            fast, _ = run_experiment(cfg)
        assert_same_trace(fast, oracle)
        settled_at = steady_state_start(oracle)
        if settled_at is not None \
                and settled_at <= cfg.duration_us - 2 * cycle_timer(n, rate):
            assert any(fired), f"rate {rate} n {n} seed {seed}"


@pytest.mark.parametrize("fire", [False, True])
def test_trace_columns_are_owned_contiguous_and_final(monkeypatch, fire):
    # with and without the closed-form tail appended to the loop's rows; a
    # column may wrap the buffer the loop appended to, but holds no memory
    # beyond its own rows
    fired = spy_on_tail(monkeypatch, fire)
    trace, _ = run_experiment(config(protocol=ProtocolKind.CF_MAC,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert any(fired) is fire and len(trace.start)
    for name, dtype in (("station", np.int32), ("start", np.int64),
                        ("outcome", np.int8), ("mode", np.int8)):
        column = getattr(trace, name)
        assert column.dtype == dtype, name
        assert column.flags.c_contiguous, name
        assert column.base is None or column.base.nbytes == column.nbytes, name


def test_run_peaks_near_the_trace_it_keeps(monkeypatch):
    # the loop appends straight to the trace's typed columns, so the engine
    # holds no second copy of the rows: a run peaks below twice the columns
    monkeypatch.setattr(engine, "compute_report", lambda trace: None)
    cfg = config(n_stations=50, duration_s=2.0, warmup_s=0.1, seed=1)
    tracemalloc.start()
    try:
        trace, _ = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(getattr(trace, name).nbytes for name in COLUMNS)
    assert peak < 2 * columns, peak / columns


@pytest.mark.parametrize("rate,n", [(6, 1), (24, 2), (48, 12)])
def test_periodic_tail_never_fires_under_cca_noise(monkeypatch, rate, n):
    fired = spy_on_tail(monkeypatch)
    trace, _ = run_experiment(config(n_stations=n, protocol=ProtocolKind.CF_MAC,
                                     rate=rate, cca_error_prob=0.05,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert len(trace.start)
    assert not any(fired)


# -- noisy round robin stepper -------------------------------------------------

def spy_on_stepper(monkeypatch, step=True):
    """Record the rows each call of the engine's round robin stepper
    appended; with step=False it returns at once and the general loop
    runs every busy period."""
    rows = []
    real = engine._step_round_robin

    def stepper(release, timed, due, states, rng, columns, *args):
        before = len(columns[0])
        if step:
            release = real(release, timed, due, states, rng, columns, *args)
        rows.append(len(columns[0]) - before)
        return release

    monkeypatch.setattr(engine, "_step_round_robin", stepper)
    return rows


@pytest.mark.parametrize("n", [1, 2, 12, 50])
@pytest.mark.parametrize("rate", [6, 11, 24, 48])
def test_round_robin_stepper_matches_the_loop(monkeypatch, rate, n):
    # at the gate and with it forced open, the stepper's rows are the
    # general loop's and it leaves the loop the same state and stream
    for p_err, seed in itertools.product((0.001, 0.01, 0.05, 0.2, 0.5),
                                         (1, 2, 3)):
        cfg = config(n_stations=n, protocol=ProtocolKind.CF_MAC, rate=rate,
                     cca_error_prob=p_err, duration_s=0.3, warmup_s=0.05,
                     seed=seed)
        with monkeypatch.context() as m:
            spy_on_stepper(m, step=False)
            oracle, report = run_experiment(cfg)
        fast, fast_report = run_experiment(cfg)
        with monkeypatch.context() as m:
            m.setattr(engine, "STEP_MAX_P", 1.0)
            forced, forced_report = run_experiment(cfg)
        assert len(oracle.start)
        assert_same_trace(fast, oracle)
        assert_same_trace(forced, oracle)
        assert repr(fast_report) == repr(report) == repr(forced_report)


@pytest.mark.parametrize("n", [12, 50])
@pytest.mark.parametrize("rate", [6, 11, 48])
def test_stepper_appends_rows_in_the_golden_noisy_sweep(monkeypatch, rate,
                                                        n):
    # the golden sweep's CfMac cells at CCA error 0.05 pin stepped rows
    for seed in (1, 2):
        with monkeypatch.context() as m:
            rows = spy_on_stepper(m)
            trace, _ = run_experiment(config(
                n_stations=n, protocol=ProtocolKind.CF_MAC, rate=rate,
                cca_error_prob=0.05, duration_s=0.5, warmup_s=0.1,
                seed=seed))
        assert 0 < sum(rows) < len(trace.start), f"seed {seed}"


def test_stepper_stops_at_a_flip_and_at_a_close_deadline():
    # two stations 1000 us apart, 400 us exchanges, a 2000 us cycle: they
    # take turns until a draw falls below p_err; a second deadline within
    # one exchange of the first stops the walk before its first row. Either
    # way the draw that stopped it is the next `chance`'s.
    p_err = 0.3
    for second in (1100, 300):
        states = [StationState(ProtocolKind.CF_MAC, phase=DEADLINE,
                               deadline=d) for d in (100, second)]
        due = [(st.deadline, DEADLINE, i) for i, st in enumerate(states)]
        timed = sorted(due)
        rng, ref = RandomSource(5), random.Random(5)
        columns = empty_columns()
        release = engine._step_round_robin(0, timed, due, states, rng,
                                           columns, p_err, 10 ** 9, 400, 2000)
        rows = len(columns[0])
        draws = [ref.random() for _ in range(rows + 1)]
        assert min(draws[:-1], default=1.0) >= p_err
        if second == 300:
            assert draws[0] >= p_err and rows == release == 0
            assert timed[0] is due[0] and len(timed) == 2
        else:
            assert draws[-1] < p_err and rows > 1
            assert list(columns[0]) == [k % 2 for k in range(rows)]
            assert list(columns[1]) == [100 + 1000 * k for k in range(rows)]
            assert set(columns[2]) == {S} and set(columns[3]) == {
                MODE_CODE[Mode.DETERMINISTIC]}
            assert release == columns[1][-1] + 400
        assert rng.chance(p_err) is (draws[-1] < p_err)
        assert rng.random() == ref.random()


def knock_off_deadline(monkeypatch):
    """Make each success that leaves every station waiting for a deadline
    move another station to HOLD behind the loop's back, its deadline entry
    still live."""
    states = []
    initial, succeed = engine.initial_station, engine.succeed

    def capture(*args):
        states.append(initial(*args))
        return states[-1]

    def knocking(state, *args):
        succeed(state, *args)
        if all(st.phase == DEADLINE for st in states):
            next(st for st in states if st is not state).phase = HOLD

    monkeypatch.setattr(engine, "initial_station", capture)
    monkeypatch.setattr(engine, "succeed", knocking)


@pytest.mark.parametrize("p_err", [0.0, 0.01])
def test_round_robin_entry_refuses_a_station_off_its_deadline(monkeypatch,
                                                              p_err):
    # both the closed-form tail and the stepper start from one check that
    # every station waits for its deadline
    knock_off_deadline(monkeypatch)
    cfg = config(n_stations=12, protocol=ProtocolKind.CF_MAC,
                 cca_error_prob=p_err, duration_s=0.5)
    with pytest.raises(RuntimeError,
                       match="round robin entered off the deadline phase"):
        run_experiment(cfg)


# -- grid-only loop -----------------------------------------------------------

def on_the_general_loop(monkeypatch):
    """Make every run take the general loop, the grid-only loop's oracle."""
    monkeypatch.setattr(engine, "_contend_on_grid", engine._contend)


@pytest.mark.parametrize("n", [1, 2, 12, 50])
@pytest.mark.parametrize("rate", [6, 11, 12, 24, 48])
@pytest.mark.parametrize("protocol",
                         [ProtocolKind.CSMA_CA, ProtocolKind.CSMA_ECA])
def test_grid_loop_matches_the_general_loop(monkeypatch, protocol, rate, n):
    for p_err, seed in itertools.product((0.0, 1.0), (1, 2, 3)):
        cfg = config(n_stations=n, protocol=protocol, rate=rate,
                     cca_error_prob=p_err, duration_s=0.3, warmup_s=0.05,
                     seed=seed)
        with monkeypatch.context() as m:
            # the grid-only loop alone, never the general one
            m.setattr(engine, "_contend", None)
            fast, fast_report = run_experiment(cfg)
        with monkeypatch.context() as m:
            on_the_general_loop(m)
            oracle, report = run_experiment(cfg)
        assert len(oracle.start)
        assert_same_trace(fast, oracle)
        assert repr(fast_report) == repr(report)


# the rules made to break an invariant in a fresh `python -O` process, one
# line of output per run: the loop it took and how it ended
INVARIANT_SCRIPT = """
from wlansim import engine
from wlansim.engine import SimConfig, run_experiment
from wlansim.protocols import DEADLINE, HOLD, ProtocolKind

assert not __debug__, "run with python -O"
succeed, fail, grid_loop = engine.succeed, engine.fail, engine._contend_on_grid


def below_zero(rule, b):
    def broken(state, *args):
        rule(state, *args)
        state.b = b
    return broken


def early_deadline(state, start, *args):
    succeed(state, start, *args)
    if state.phase == DEADLINE:
        state.deadline = start


for protocol, general, b in [("CsmaCa", False, -1), ("CsmaEca", False, -1),
                             ("CsmaCa", True, -1), ("CfMac", True, -1),
                             ("CfMac", True, None)]:
    engine._contend_on_grid = engine._contend if general else grid_loop
    if b is None:
        engine.succeed, engine.fail = early_deadline, fail
    else:
        engine.succeed, engine.fail = below_zero(succeed, b), below_zero(fail, b)
    config = SimConfig(n_stations=12, protocol=ProtocolKind(protocol),
                       rate=48, duration_s=0.5, warmup_s=0.05)
    try:
        trace, _ = run_experiment(config)
    except RuntimeError as exc:
        print(protocol, general, b, "RuntimeError", exc)
    else:
        print(protocol, general, b, "returned", len(trace.start))

# a noisy round robin with the broken rule inside the stepper alone: only
# the stepper's own check sees it (without it the walk appends rows at one
# instant until a draw flips, and the loop then finds an event in the past)
engine.succeed, engine.fail = succeed, fail
step = engine._step_round_robin


def broken_step(*args):
    engine.succeed = early_deadline
    try:
        return step(*args)
    finally:
        engine.succeed = succeed


engine._step_round_robin = broken_step
config = SimConfig(n_stations=12, protocol=ProtocolKind.CF_MAC, rate=48,
                   duration_s=0.5, warmup_s=0.05, cca_error_prob=0.01)
try:
    trace, _ = run_experiment(config)
except RuntimeError as exc:
    print("CfMac stepper None RuntimeError", exc)
else:
    print("CfMac stepper None returned", len(trace.start))

# a noiseless round robin with a station moved to HOLD behind the loop's
# back, its deadline entry still live: the round robin entry refuses it
# before it tries the closed-form tail
engine._step_round_robin = step
states, initial = [], engine.initial_station


def capture(*args):
    states.append(initial(*args))
    return states[-1]


def knocking(state, *args):
    succeed(state, *args)
    if all(st.phase == DEADLINE for st in states):
        next(st for st in states if st is not state).phase = HOLD


engine.initial_station, engine.succeed = capture, knocking
config = SimConfig(n_stations=12, protocol=ProtocolKind.CF_MAC, rate=48,
                   duration_s=0.5, warmup_s=0.05)
try:
    trace, _ = run_experiment(config)
except RuntimeError as exc:
    print("CfMac entry 0.0 RuntimeError", exc)
else:
    print("CfMac entry 0.0 returned", len(trace.start))
"""


def test_invariant_checks_survive_python_O():
    # pytest itself cannot run under -O with the project's warning filters,
    # so a fresh interpreter runs the broken rules
    src = str(Path(engine.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-O", "-c", INVARIANT_SCRIPT],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(" RuntimeError ")[0] for line in lines] == [
        "CsmaCa False -1", "CsmaEca False -1", "CsmaCa True -1",
        "CfMac True -1", "CfMac True None", "CfMac stepper None",
        "CfMac entry 0.0"], lines
    # both loops reject a live grid key below the banked slots: an attempt
    # between the release and the end of DIFS
    assert all(line.endswith("fired before DIFS") for line in lines[:4])
    assert all("scheduled its deadline" in line for line in lines[4:6])
    assert lines[6].endswith("round robin entered off the deadline phase")


# -- CCA noise ----------------------------------------------------------------

def test_noisy_sensing_run_stays_wellformed():
    trace, report = run_experiment(config(n_stations=4,
                                          protocol=ProtocolKind.CF_MAC,
                                          rate=24, cca_error_prob=0.5,
                                          duration_s=0.2, warmup_s=0.02,
                                          seed=11))
    assert_wellformed(trace)
    assert (trace.outcome == S).sum() > 0


@pytest.mark.xfail(strict=True, reason="the busy-period loop takes every "
                   "timeline entry before the release, including false-idle "
                   "joiners at or after the end of the run")
def test_no_attempt_is_recorded_after_the_run():
    # the last starts are 46732, 49538 and 51382 us in a 50000 us run
    trace, _ = run_experiment(config(n_stations=2, protocol=ProtocolKind.CF_MAC,
                                     rate=6, cca_error_prob=0.5, seed=3,
                                     duration_s=0.05, warmup_s=0.0))
    assert_wellformed(trace)


def test_certain_flips_still_make_progress():
    # a lone station whose every probe lies to it keeps falling back to
    # legacy contention and still delivers frames without collisions
    trace, _ = run_experiment(config(n_stations=1, protocol=ProtocolKind.CF_MAC,
                                     cca_error_prob=1.0, duration_s=0.1,
                                     warmup_s=0.01, seed=2))
    assert len(trace.start) > 5
    assert (trace.outcome == S).all()
    assert_wellformed(trace)


def test_legacy_sensing_ignores_the_noise_knob(monkeypatch):
    # slotted carrier sensing is modeled as faithful, so a pure CSMA/CA run
    # is identical at any error probability; on the general loop, since the
    # grid-only loop never reads the knob
    on_the_general_loop(monkeypatch)
    quiet, _ = run_experiment(config(seed=3, duration_s=0.1, warmup_s=0.01))
    noisy, _ = run_experiment(config(seed=3, duration_s=0.1, warmup_s=0.01,
                                     cca_error_prob=1.0))
    assert_same_trace(quiet, noisy)


# -- model agreement (loose) --------------------------------------------------

def test_collision_rate_tracks_the_fixed_point():
    from wlansim.bianchi import solve_fixed_point
    _, report = run_experiment(config(n_stations=8, rate=12, duration_s=5.0,
                                      warmup_s=0.5, seed=1))
    _, p = solve_fixed_point(8)
    assert report.aggregate_loss == pytest.approx(p, abs=0.08)
