"""Engine tests: busy-period resolution, determinism, timing, and config checks."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wlansim import engine
from wlansim.engine import (
    ConfigError,
    SimConfig,
    frame_exchange_us,
    run_experiment,
)
from wlansim.metrics import compute_report, steady_state_start
from wlansim.phy import (MAC_OVERHEAD_BYTES, UnsupportedRateError, data_airtime,
                         phy_profile)
from wlansim.protocols import Mode, ProtocolKind, RandomSource
from wlansim.schedule import ScheduleRow, ScheduleTable, cycle_timer
from wlansim.trace import (MODE_CODE, MODES, OUTCOME_CODE, OUTCOMES, Outcome,
                           TraceLog)

COLUMNS = ("station", "start", "end", "outcome", "mode")
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
    airtime = data_airtime(cfg.payload_bytes + MAC_OVERHEAD_BYTES, cfg.rate)
    assert ((0 <= trace.start) & (trace.start < cfg.duration_us)).all()
    assert (trace.end - trace.start == airtime).all()
    # rows are in (start, station) order
    order = np.lexsort((trace.station, trace.start))
    assert np.array_equal(order, np.arange(len(order)))
    # successful transmissions never overlap anything else on the channel;
    # every frame lasts `airtime`, so a frame that overlaps a later one
    # overlaps the next one
    overlap = trace.start[1:] < trace.end[:-1]
    success = trace.outcome == S
    assert not (overlap & (success[:-1] | success[1:])).any()


# -- busy-period resolution ---------------------------------------------------

DATA, SIFS_ACK, DIFS = 500, 60, 30


@pytest.mark.parametrize("txs, flips, codes, release", [
    pytest.param([], set(), [], 0, id="empty"),
    pytest.param([(100, 0)], set(), [S], 600 + SIFS_ACK, id="lone_success"),
    pytest.param([(100, 0), (100, 1)], set(), [C, C], 600 + DIFS,
                 id="simultaneous_starts_collide"),
    pytest.param([(100, 0), (400, 1)], set(), [C, C], 900 + DIFS,
                 id="staggered_overlap_collides"),
    # half-open frames: ending exactly when the next starts is no overlap
    pytest.param([(100, 0), (600, 1)], set(), [S, S], 1100 + SIFS_ACK,
                 id="back_to_back_is_clean"),
    # 850 overlaps only the second frame, yet joins the whole group
    pytest.param([(0, 0), (400, 1), (850, 2)], set(), [C, C, C], 1350 + DIFS,
                 id="chained_component"),
    pytest.param([(0, 0), (100, 1), (700, 2)], set(), [C, C, S],
                 1200 + SIFS_ACK, id="mixed_groups"),
    # a station that started on a false-idle sample is blamed on its CCA;
    # the frame it hit is a plain collision, and a lone flip-joined frame
    # (landing after every data frame ended) still succeeds
    pytest.param([(100, 0), (400, 1), (1000, 2)], {1, 2}, [C, E, S],
                 1500 + SIFS_ACK, id="flip_joiner_is_a_cca_error"),
    # a joiner in the SIFS + ACK tail of a lone success succeeds too and
    # moves the release one frame exchange past its own start
    pytest.param([(100, 0), (620, 1)], {1}, [S, S], 1120 + SIFS_ACK,
                 id="tail_joiner_extends_lone_success"),
    # a joiner during the data frame turns the success into a collision:
    # the release is the joiner's end plus DIFS, not SIFS + ACK
    pytest.param([(100, 0), (300, 1)], {1}, [C, E], 800 + DIFS,
                 id="joiner_turns_success_into_collision"),
    # the latest group end sets the release even when it ends with the
    # shorter tail
    pytest.param([(0, 0), (0, 1), (525, 2)], set(), [C, C, S],
                 1025 + SIFS_ACK, id="release_from_last_group"),
])
def test_resolve(txs, flips, codes, release):
    assert engine._resolve(txs, flips, DATA, SIFS_ACK, DIFS) == (codes, release)


@given(start=st.integers(0, 10 ** 9),
       stations=st.lists(st.integers(0, 49), min_size=1, max_size=8,
                         unique=True).map(sorted),
       data_us=st.integers(1, 10 ** 4), sifs_ack_us=st.integers(1, 10 ** 3),
       difs_us=st.integers(1, 10 ** 3))
def test_resolve_of_one_frame_is_the_inlined_success(start, stations, data_us,
                                                     sifs_ack_us, difs_us):
    # run_experiment resolves frames that all start at one instant without
    # _resolve: one is a success, k >= 2 all collide
    txs = [(start, i) for i in stations]
    expected = (([S], start + data_us + sifs_ack_us) if len(txs) == 1
                else ([C] * len(txs), start + data_us + difs_us))
    assert engine._resolve(txs, set(), data_us, sifs_ack_us,
                           difs_us) == expected


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
    cases = [dict(n_stations=0), dict(duration_s=0.0),
             dict(warmup_s=0.3, duration_s=0.3), dict(warmup_s=-0.1),
             dict(cca_error_prob=1.5), dict(cca_error_prob=-0.1),
             dict(payload_bytes=0), dict(payload_bytes=2305), dict(seed=-1),
             # whole microseconds: no run at all, a warmup that rounds up to
             # the end of the run
             dict(duration_s=1e-7, warmup_s=0.0),
             dict(duration_s=1.4e-6, warmup_s=1e-6)]
    for kw in cases:
        with pytest.raises(ConfigError):
            config(**kw).validate()
    with pytest.raises(UnsupportedRateError):
        config(rate=7).validate()
    config(payload_bytes=2304).validate()  # one full 802.11 MSDU


def test_schedule_floor_enforced():
    # the per-station slice must cover data + SIFS + ACK + DIFS
    floor = frame_exchange_us(48, 1470) + 28
    assert floor == 354
    short = ScheduleTable(rows={48: ScheduleRow(share_us=300.0, epsilon_us=25.0)})
    with pytest.raises(ConfigError):
        config(protocol=ProtocolKind.CF_MAC, schedule=short).validate()
    exact = ScheduleTable(rows={48: ScheduleRow(share_us=329.0, epsilon_us=25.0)})
    config(protocol=ProtocolKind.CF_MAC, schedule=exact).validate()


def test_run_experiment_validates_first():
    with pytest.raises(ConfigError):
        run_experiment(config(n_stations=0))


# -- closed-form periodic tail -------------------------------------------------

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
    columns = engine._periodic_tail([(600, 1), (100, 0)], 1000, 400, 2600)
    station, start, outcome, mode = (c.tolist() for c in columns)
    assert list(zip(station, start)) == [
        (0, 100), (1, 600), (0, 1100), (1, 1600), (0, 2100)]
    assert {(OUTCOMES[o], MODES[m]) for o, m in zip(outcome, mode)} == {
        (Outcome.SUCCESS, Mode.DETERMINISTIC)}
    assert np.bincount(station).tolist() == [3, 2]
    # gaps of exactly one exchange, the wrap included, still qualify
    assert engine._periodic_tail([(100, 0), (500, 1)], 800, 400,
                                 2600) is not None
    # a gap shorter than an exchange, inside the cycle or across its wrap,
    # is not periodic
    assert engine._periodic_tail([(100, 0), (499, 1)], 1000, 400,
                                 2600) is None
    assert engine._periodic_tail([(100, 0), (800, 1)], 1000, 400,
                                 2600) is None


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
    # with and without the closed-form tail appended to the loop's rows
    fired = spy_on_tail(monkeypatch, fire)
    trace, _ = run_experiment(config(protocol=ProtocolKind.CF_MAC,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert any(fired) is fire and len(trace.start)
    for name, dtype in (("station", np.int32), ("start", np.int64),
                        ("end", np.int64), ("outcome", np.int8),
                        ("mode", np.int8)):
        column = getattr(trace, name)
        assert column.dtype == dtype, name
        assert column.flags.c_contiguous and column.flags.owndata, name


@pytest.mark.parametrize("rate,n", [(6, 1), (24, 2), (48, 12)])
def test_periodic_tail_never_fires_under_cca_noise(monkeypatch, rate, n):
    fired = spy_on_tail(monkeypatch)
    trace, _ = run_experiment(config(n_stations=n, protocol=ProtocolKind.CF_MAC,
                                     rate=rate, cca_error_prob=0.05,
                                     duration_s=1.0, warmup_s=0.1, seed=1))
    assert len(trace.start)
    assert not any(fired)


# -- CCA noise ----------------------------------------------------------------

def test_cca_sample_flips_with_its_probability():
    # a twin source in lockstep shows how many draws each call consumed
    rng, twin = RandomSource(4), RandomSource(4)
    for truth in (True, False):
        assert engine.cca_sample(truth, rng, 0.0) is truth
    assert rng.next_uniform(0, 10 ** 9) == twin.next_uniform(0, 10 ** 9)
    for k in range(100):
        truth = k % 2 == 0
        assert engine.cca_sample(truth, rng, 1.0) is not truth
        twin.chance(1.0)
    flips = 0
    for k in range(200):
        truth = k % 3 == 0
        flipped = twin.chance(0.3)
        flips += flipped
        assert engine.cca_sample(truth, rng, 0.3) is (truth is not flipped)
    assert 0 < flips < 200
    assert rng.next_uniform(0, 10 ** 9) == twin.next_uniform(0, 10 ** 9)


def test_noisy_sensing_run_stays_wellformed():
    trace, report = run_experiment(config(n_stations=4,
                                          protocol=ProtocolKind.CF_MAC,
                                          rate=24, cca_error_prob=0.5,
                                          duration_s=0.2, warmup_s=0.02,
                                          seed=11))
    assert_wellformed(trace)
    assert (trace.outcome == S).sum() > 0


def test_certain_flips_still_make_progress():
    # a lone station whose every probe lies to it keeps falling back to
    # legacy contention and still delivers frames without collisions
    trace, _ = run_experiment(config(n_stations=1, protocol=ProtocolKind.CF_MAC,
                                     cca_error_prob=1.0, duration_s=0.1,
                                     warmup_s=0.01, seed=2))
    assert len(trace.start) > 5
    assert (trace.outcome == S).all()
    assert_wellformed(trace)


def test_legacy_sensing_ignores_the_noise_knob():
    # slotted carrier sensing is modeled as faithful, so a pure CSMA/CA run
    # is identical at any error probability
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
