"""Engine tests: mid-air joiners, determinism, timing, config checks, the
round robin walk, its closed-form tail and its entry, the grid-only loop
against the general one, and the invariant checks."""
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
from wlansim.schedule import DEFAULT_TABLE, ScheduleRow, ScheduleTable
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
    cycle = 3 * DEFAULT_TABLE.rows[24].total_us
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


@pytest.mark.parametrize("field,value", [
    ("n_stations", 12.0), ("n_stations", True), ("payload_bytes", 100.5),
    ("rate", 48.0), ("seed", True), ("seed", "1")])
def test_config_refuses_fields_that_are_not_integers(field, value):
    # 12.0 stations failed inside the engine; the others ran on
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        config(**{field: value})
    # operator.index takes a numpy integer, stored as an int: a numpy seed
    # was accepted here and then failed random.Random in the run
    cfg = config(**{field: np.int64(getattr(config(), field))})
    assert type(getattr(cfg, field)) is int
    assert_same_trace(run_experiment(cfg)[0], run_experiment(config())[0])


@pytest.mark.parametrize("value", [True, "1", None])
@pytest.mark.parametrize("field", ["duration_s", "warmup_s", "cca_error_prob"])
def test_config_refuses_fields_that_are_not_real_numbers(field, value):
    # duration_s=True, warmup_s=False built a 1 s run, cca_error_prob=True
    # stayed a bool, and "1" or None raised a bare TypeError
    with pytest.raises(ConfigError, match=f"{field} must be a real number"):
        config(**{field: value})
    config(**{field: np.float64(getattr(config(), field))})


def test_schedule_floor_enforced():
    # the per-station slice must cover data + SIFS + ACK + DIFS
    floor = config().exchange_us + 28
    assert floor == 354
    short = ScheduleTable(rows={48: ScheduleRow(share_us=300.0, epsilon_us=25.0)})
    with pytest.raises(ConfigError):
        config(protocol=ProtocolKind.CF_MAC, schedule=short)
    exact = ScheduleTable(rows={48: ScheduleRow(share_us=329.0, epsilon_us=25.0)})
    config(protocol=ProtocolKind.CF_MAC, schedule=exact)


@pytest.mark.parametrize("schedule", [
    ScheduleTable(rows={}), ScheduleTable(rows={24: DEFAULT_TABLE.rows[24]})],
    ids=["no_row", "other_rate"])
def test_config_refuses_a_bad_schedule_row(schedule):
    # a row checks itself when it is built (tests/test_schedule.py), so the
    # one bad row a config can meet is a missing one
    with pytest.raises(ConfigError, match=r"rate 48\b"):
        config(protocol=ProtocolKind.CF_MAC, schedule=schedule)


@pytest.mark.parametrize("n", [1, 2])
def test_schedule_ceiling_keeps_deadlines_in_int64(n):
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
    trace, _ = run_experiment(cfg)
    # each station succeeds once, then waits past the end for its deadline
    assert np.bincount(trace.station[trace.outcome == S]).tolist() == [1] * n
    # the latest deadlines any run of this config can set: a rotation whose
    # last start is the last microsecond of the run, plus one cycle each
    head = rotation(*((duration_us - 1 - (n - 1 - i) * longest, i)
                      for i in range(n)))
    tail = engine._periodic_tail(head, n, n * longest, duration_us)
    assert [c.tolist() for c in tail] == [c.tolist() for c in head]


def test_run_experiment_validates_first():
    # run_experiment checks nothing itself: no path, `replace` included,
    # hands it a config that was not checked when it was built
    with pytest.raises(ConfigError):
        run_experiment(dataclasses.replace(config(), n_stations=0))


# -- closed-form periodic tail -------------------------------------------------

def empty_columns():
    return [array(np.dtype(dt).char) for dt in _DTYPES.values()]


def rotation(*pairs, head=()):
    """Columns holding the rows `head`, then a lone deterministic success
    for each (start, station) pair."""
    columns = empty_columns()
    for row in [*head, *((i, start, S, MODE_CODE[Mode.DETERMINISTIC])
                          for start, i in pairs)]:
        for column, value in zip(columns, row):
            column.append(value)
    return columns


def spy_on_tail(monkeypatch):
    """Record every tail the engine's closed-form helper returned."""
    tails = []
    real = engine._periodic_tail

    def helper(*args):
        tails.append(real(*args))
        return tails[-1]

    monkeypatch.setattr(engine, "_periodic_tail", helper)
    return tails


def test_periodic_tail_closed_form():
    # a rotation of two stations 500 us apart on a 1000 us cycle repeats
    # after the rows it ends; a start at the end of the run is past it
    columns = engine._periodic_tail(rotation((100, 0), (600, 1)), 2, 1000,
                                    2600)
    station, start, outcome, mode = (c.tolist() for c in columns)
    assert list(zip(station, start)) == [
        (0, 100), (1, 600), (0, 1100), (1, 1600), (0, 2100)]
    assert {(OUTCOMES[o], MODES[m]) for o, m in zip(outcome, mode)} == {
        (Outcome.SUCCESS, Mode.DETERMINISTIC)}
    assert np.bincount(station).tolist() == [3, 2]
    # the loop's rows come first, as they were, and only the last n rows
    # are the rotation
    legacy = (1, 40, C, MODE_CODE[Mode.LEGACY])
    joined = engine._periodic_tail(rotation((100, 0), (600, 1), head=[legacy]),
                                   2, 1000, 2600)
    assert [c.tolist() for c in joined] == [
        [h] + c.tolist() for h, c in zip(legacy, columns)]
    # next deadlines at or past the end give no rows, one before it a row
    for duration_us, rows in ((1100, 2), (1101, 3), (1600, 3), (1601, 4)):
        tail = engine._periodic_tail(rotation((100, 0), (600, 1)), 2, 1000,
                                     duration_us)
        assert [len(c) for c in tail] == [rows] * 4
        assert tail[1].tolist() == [100, 600, 1100, 1600][:rows]
    # a last start at duration_us - 1 whose next deadline is the top of
    # int64 still gives no rows
    cycle = 2 ** 63 - 2600
    tail = engine._periodic_tail(rotation((100, 0), (2599, 1)), 2, cycle,
                                 2600)
    assert [c.tolist() for c in tail] == [[0, 1], [100, 2599], [S] * 2,
                                          [MODE_CODE[Mode.DETERMINISTIC]] * 2]


@pytest.mark.parametrize("n", [1, 2, 12, 50])
@pytest.mark.parametrize("rate", [6, 11, 12, 24, 48])
def test_periodic_tail_matches_the_loop(monkeypatch, rate, n):
    for seed in (1, 2, 3):
        cfg = config(n_stations=n, protocol=ProtocolKind.CF_MAC, rate=rate,
                     duration_s=2.0, warmup_s=0.1, seed=seed)
        with monkeypatch.context() as m:
            spy_on_stepper(m, step=False)
            oracle, _ = run_experiment(cfg)
        with monkeypatch.context() as m:
            tails = spy_on_tail(m)
            fast, _ = run_experiment(cfg)
        assert_same_trace(fast, oracle)
        assert len(tails) <= 1
        settled_at = steady_state_start(oracle)
        if settled_at is not None \
                and settled_at <= cfg.duration_us - 2 * cfg.cycle_us:
            assert tails, f"rate {rate} n {n} seed {seed}"


@pytest.mark.parametrize("duration_s", [1.0, 2.0])
def test_a_converging_run_takes_the_tail_once(monkeypatch, duration_s):
    # the walk proves one rotation and ends the run in closed form: one
    # call, where re-testing the round robin after every quiet busy period
    # made 275 on each of these cells, 274 of them finding no tail. At 1 s
    # the run ends before the walk has appended a whole rotation
    cfg = config(n_stations=350, protocol=ProtocolKind.CF_MAC,
                 duration_s=duration_s, warmup_s=0.1, seed=1)
    with monkeypatch.context() as m:
        spy_on_stepper(m, step=False)
        oracle, report = run_experiment(cfg)
    with monkeypatch.context() as m:
        tails = spy_on_tail(m)
        fast, fast_report = run_experiment(cfg)
    assert len(tails) == (duration_s > 1)
    assert all(len(tail[0]) == len(fast.start) for tail in tails)
    assert_same_trace(fast, oracle)
    assert repr(fast_report) == repr(report)


@pytest.mark.parametrize("fire", [False, True])
def test_trace_columns_are_owned_contiguous_and_final(monkeypatch, fire):
    # with the closed-form tail appended to the loop's rows, and with the
    # walk patched out; a column may wrap the buffer the loop appended to,
    # but holds no memory beyond its own rows
    if not fire:
        spy_on_stepper(monkeypatch, step=False)
    tails = spy_on_tail(monkeypatch)
    trace, _ = run_experiment(config(protocol=ProtocolKind.CF_MAC,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert len(tails) == fire and len(trace.start)
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
    tails = spy_on_tail(monkeypatch)
    trace, _ = run_experiment(config(n_stations=n, protocol=ProtocolKind.CF_MAC,
                                     rate=rate, cca_error_prob=0.05,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert len(trace.start)
    assert not tails


# -- round robin walk ----------------------------------------------------------

def spy_on_stepper(monkeypatch, step=True):
    """Record the rows each call of the engine's round robin walk appended;
    with step=False it returns at once and the general loop runs every busy
    period."""
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
    # without noise, at the gate and with it forced open, the walk's rows
    # are the general loop's and it leaves the loop the same state and stream
    for p_err, seed in itertools.product((0.0, 0.001, 0.01, 0.05, 0.2, 0.5),
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


def test_noiseless_walk_draws_nothing_and_ends_in_the_tail():
    # two stations 1000 us apart, 400 us exchanges, a 2000 us cycle: a
    # second deadline within one exchange of the first stops the walk before
    # its first row, the end of the run stops it after one row, and
    # otherwise two rows in a row end the run in closed form; no way draws
    for second, duration_us in ((300, 10 ** 4), (1100, 1000), (1100, 10 ** 4)):
        states = [StationState(ProtocolKind.CF_MAC, phase=DEADLINE,
                               deadline=d) for d in (100, second)]
        due = [(st.deadline, DEADLINE, i) for i, st in enumerate(states)]
        timed = sorted(due)
        rng, ref = RandomSource(5), random.Random(5)
        columns = empty_columns()
        walked = engine._step_round_robin(0, timed, due, states, rng, columns,
                                          0.0, duration_us, 400, 2000)
        if second == 300:
            assert walked == 0 and not len(columns[0])
            assert timed[0] is due[0] and len(timed) == 2
        elif duration_us == 1000:
            assert walked == 500 and list(columns[1]) == [100]
        else:
            assert list(columns[1]) == [100, 1100]
            assert walked[1].tolist() == list(range(100, duration_us, 1000))
            assert walked[0].tolist() == [k % 2 for k in range(10)]
        # nothing drawn and nothing handed back
        assert rng.chance(0.5) is (ref.random() < 0.5)


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
    # the walk starts, with and without noise, from one check that every
    # station waits for its deadline
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
import itertools

from wlansim import engine
from wlansim.engine import SimConfig, run_experiment
from wlansim.protocols import DEADLINE, HOLD, ProtocolKind, RandomSource

assert not __debug__, "run with python -O"
succeed, fail, grid_loop = engine.succeed, engine.fail, engine._contend_on_grid
words = RandomSource.words


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
    elif general:
        engine.succeed, engine.fail = below_zero(succeed, b), below_zero(fail, b)
    else:
        # the grid loop applies the legacy rules itself, each backoff a
        # word of the source shifted right, and b >> s is b for b = -1
        RandomSource.words = lambda self: itertools.repeat(b).__next__
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
engine.succeed, engine.fail, RandomSource.words = succeed, fail, words
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
# before it walks
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
