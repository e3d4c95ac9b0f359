"""Metrics unit tests on hand-built traces with hand-computed expectations."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wlansim.metrics import (
    IatStats,
    compute_report,
    convergence_time,
    jfi,
    loss_fraction,
    min_max_ratio,
    normalized_interarrival,
    steady_state_start,
)
from wlansim.engine import ConfigError, SimConfig
from wlansim.protocols import Mode, ProtocolKind
from wlansim.trace import MODE_CODE, OUTCOME_CODE, Outcome, TraceLog


def rec(station, start, outcome=Outcome.SUCCESS, mode=Mode.DETERMINISTIC):
    """One trace row: (station, start, outcome code, mode code); its frame
    lasts the config's data_us, 272 us at 48 Mb/s for 1470 bytes."""
    return (station, start, OUTCOME_CODE[outcome], MODE_CODE[mode])


def trace_of(rows, protocol=ProtocolKind.CF_MAC, n_stations=None,
             duration_us=1_000_000, warmup_us=0, payload=1470):
    if n_stations is None:
        n_stations = max((r[0] for r in rows), default=0) + 1
    # trace rows are in (start, station) order
    rows = sorted(rows, key=lambda r: (r[1], r[0]))
    config = SimConfig(n_stations=n_stations, protocol=protocol, rate=48,
                       payload_bytes=payload, duration_s=duration_us / 1e6,
                       warmup_s=warmup_us / 1e6)
    return TraceLog(config, **dict(zip(
        ("station", "start", "outcome", "mode"),
        zip(*rows) if rows else ((),) * 4)))


# -- throughput ---------------------------------------------------------------

def test_throughput_thousand_frames_in_a_second():
    # 1000 * 1470 B * 8 over 1 s is 11.76 Mb/s.
    t = trace_of([rec(0, i * 1000) for i in range(1000)])
    assert compute_report(t).per_station_throughput == [pytest.approx(11.76)]


def test_throughput_counts_starts_inside_window_only():
    t = trace_of([rec(0, 99), rec(0, 100), rec(0, 500), rec(0, 1000)],
                 duration_us=1000, warmup_us=100)
    got = compute_report(t).per_station_throughput
    # only the starts at 100 and 500 land in [100, 1000)
    assert got == [pytest.approx(2 * 1470 * 8 / 900)]


def test_throughput_ignores_collisions():
    t = trace_of([rec(0, 0), rec(0, 1000, outcome=Outcome.COLLISION),
                  rec(0, 2000, outcome=Outcome.CCA_ERROR)], duration_us=10_000)
    assert compute_report(t).per_station_throughput == [
        pytest.approx(1470 * 8 / 10_000)]


def test_throughput_respects_warmup_default_window():
    t = trace_of([rec(0, 10), rec(0, 600)], duration_us=1000, warmup_us=500)
    assert compute_report(t).per_station_throughput == [
        pytest.approx(1470 * 8 / 500)]


def test_bad_window_rejected():
    # the window is the config's, so a trace with an empty one is refused
    with pytest.raises(ConfigError):
        trace_of([rec(0, 0)], duration_us=100, warmup_us=100)


# -- fairness -----------------------------------------------------------------

def test_jfi_uniform_allocation_is_one():
    assert jfi([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)


def test_jfi_single_hog():
    assert jfi([4.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_jfi_two_to_one_split():
    assert jfi([2.0, 1.0]) == pytest.approx(0.9)


def test_jfi_undefined_cases():
    with pytest.raises(ValueError):
        jfi([])
    with pytest.raises(ValueError):
        jfi([0.0, 0.0])


def test_min_max_ratio_cases():
    assert min_max_ratio([5.0, 5.0]) == pytest.approx(1.0)
    assert min_max_ratio([1.0, 4.0]) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        min_max_ratio([0.0, 0.0])
    with pytest.raises(ValueError):
        min_max_ratio([])


@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(min_value=1e-6, max_value=1e6)),
                min_size=1, max_size=20),
       st.floats(min_value=1e-3, max_value=1e3))
def test_jfi_scale_invariant_and_bounded(xs, alpha):
    assume(max(xs) > 0.0)
    base = jfi(xs)
    assert 1.0 / len(xs) - 1e-12 <= base <= 1.0 + 1e-12
    assert math.isclose(jfi([alpha * x for x in xs]), base, rel_tol=1e-9)


# -- inter-arrival ------------------------------------------------------------

def test_interarrival_even_cadence():
    t = trace_of([rec(0, 0), rec(0, 100), rec(0, 200)], duration_us=1000)
    stats = compute_report(t).interarrival[0]
    assert stats == IatStats(mean=100.0, std=0.0, min=100.0, max=100.0)


def test_interarrival_uneven_gaps():
    t = trace_of([rec(0, 0), rec(0, 50), rec(0, 250)], duration_us=1000)
    stats = compute_report(t).interarrival[0]
    # gaps 50 and 200: population std
    assert stats == IatStats(mean=125.0, std=75.0, min=50.0, max=200.0)


def test_interarrival_counts_failed_attempts_too():
    t = trace_of([rec(0, 0), rec(0, 300, outcome=Outcome.COLLISION), rec(0, 400)],
                 duration_us=1000)
    stats = compute_report(t).interarrival[0]
    assert (stats.min, stats.max) == (100.0, 300.0)


def test_interarrival_needs_two_attempts():
    t = trace_of([rec(0, 0), rec(1, 100)], duration_us=1000)
    got = compute_report(t).interarrival
    assert got[0] is None and got[1] is None


def reference_interarrival(trace):
    """Per-station gaps the plain way: one np.diff per station."""
    config = trace.config
    starts = {i: [] for i in range(config.n_stations)}
    for i, s in zip(trace.station.tolist(), trace.start.tolist()):
        if config.warmup_us <= s < config.duration_us:
            starts[i].append(s)
    out = dict.fromkeys(starts)
    for i, row in starts.items():
        if len(row) >= 2:
            gaps = np.diff(np.array(row, dtype=np.int64))
            out[i] = IatStats(mean=float(gaps.mean()), std=float(gaps.std()),
                              min=float(gaps.min()), max=float(gaps.max()))
    return out


@st.composite
def station_traces(draw):
    # windows up to 2**53 us, where an integer gap sum is exact in a float
    n = draw(st.integers(1, 6))
    duration = draw(st.sampled_from([1_000, 10**6, 2**53]))
    warmup = draw(st.integers(0, duration // 2))
    starts = st.one_of(st.integers(0, duration + 10), st.integers(0, 40))
    rows = draw(st.lists(st.tuples(st.integers(0, n - 1), starts),
                         max_size=60))
    return n, duration, warmup, rows


# station 0 gaps 1, station 1 gaps 3 and 4, station 2 nothing: each gap across
# a station boundary (998 and -1003) is larger or smaller than every real gap
@example(case=(3, 10_000, 0, [(0, 0), (0, 1), (0, 2), (1, 1000), (1, 1003),
                              (1, 1007), (2, 4)]))
# above 2**15 - 1 stations the sort key stays int32
@example(case=(40_000, 10**6, 0, [(0, 5), (32_768, 1), (39_999, 2), (0, 9),
                                  (32_768, 7), (39_999, 3), (32_767, 4)]))
# nine gaps whose squared deviations sum to another float in order than
# pairwise, as ndarray.std sums
@example(case=(2, 10_000, 0, [(1, 7), (1, 9)] + [
    (0, s) for s in (0, 765, 1494, 2340, 2516, 2606, 3469, 3492, 4033, 4114)]))
@example(case=(2, 1_000, 0, []))
@given(case=station_traces())
@settings(deadline=None)  # the 40,000-station report is slow on a busy host
def test_interarrival_matches_a_per_station_diff(case):
    n, duration, warmup, rows = case
    t = trace_of([rec(i, s) for i, s in rows], n_stations=n,
                 duration_us=duration, warmup_us=warmup)
    got, want = compute_report(t).interarrival, reference_interarrival(t)
    # station by station, so a failure names stations instead of diffing
    # two reprs of n entries
    assert list(got) == list(want)
    assert [i for i in want if repr(got[i]) != repr(want[i])] == []


def test_interarrival_mean_beyond_float_integers():
    # past 2**53 us a float sum of the gaps rounds at each step (ndarray.mean
    # reads 6.244991483287087e+17 here); the mean is the exact integer sum,
    # as a float, over the count
    last = 2**60 + 2**58 + 3 * 2**57 + 134
    t = trace_of([rec(0, s) for s in (0, 2**60 + 1, 2**60 + 2**58 + 67, last)],
                 duration_us=2**62)
    assert compute_report(t).interarrival[0].mean == float(last) / 3


def test_normalized_interarrival():
    stats = {0: IatStats(mean=12600.0, std=0.0, min=12600.0, max=12600.0), 1: None}
    assert normalized_interarrival(stats, 6300.0) == {0: pytest.approx(2.0), 1: None}
    with pytest.raises(ValueError):
        normalized_interarrival(stats, 0.0)


# -- loss ---------------------------------------------------------------------

def test_loss_fraction_values():
    assert loss_fraction(0, 100) == 0.0
    assert loss_fraction(5, 5) == 0.5
    with pytest.raises(ValueError):
        loss_fraction(0, 0)


def test_per_station_loss():
    t = trace_of([rec(0, 0), rec(0, 100, outcome=Outcome.COLLISION),
                  rec(1, 200), rec(1, 300), rec(1, 400)],
                 n_stations=3, duration_us=1000)
    assert compute_report(t).per_station_loss == [pytest.approx(0.5),
                                                  pytest.approx(0.0), None]


# -- convergence --------------------------------------------------------------

def test_convergence_zero_when_never_collided():
    for proto in ProtocolKind:
        t = trace_of([rec(0, 0, mode=Mode.LEGACY), rec(0, 500, mode=Mode.LEGACY)],
                     protocol=proto, duration_us=1000)
        assert convergence_time(t) == 0


def test_random_backoff_never_settles():
    t = trace_of([rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
                  rec(0, 500, mode=Mode.LEGACY)],
                 protocol=ProtocolKind.CSMA_CA, duration_us=1000)
    assert convergence_time(t) is None


def test_cfmac_needs_a_deterministic_record_to_settle():
    t = trace_of([rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
                  rec(0, 500, mode=Mode.LEGACY)],
                 protocol=ProtocolKind.CF_MAC, duration_us=1000)
    assert convergence_time(t) is None


def test_convergence_is_end_of_last_collision():
    t = trace_of([rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
                  rec(1, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
                  rec(0, 600, mode=Mode.LEGACY),
                  rec(1, 900, outcome=Outcome.COLLISION, mode=Mode.DETERMINISTIC),
                  rec(0, 1500), rec(1, 1800)],
                 protocol=ProtocolKind.CF_MAC, duration_us=10_000)
    assert convergence_time(t) == 900 + 272


def test_collision_at_trace_end_means_unsettled():
    t = trace_of([rec(0, 0), rec(0, 500, outcome=Outcome.COLLISION)],
                 protocol=ProtocolKind.CF_MAC, duration_us=1000)
    assert convergence_time(t) is None


def test_eca_settles_without_deterministic_mode():
    t = trace_of([rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
                  rec(0, 600, mode=Mode.LEGACY)],
                 protocol=ProtocolKind.CSMA_ECA, duration_us=1000)
    assert convergence_time(t) == 272


def test_steady_state_start():
    t = trace_of([rec(0, 0, mode=Mode.LEGACY),
                  rec(0, 600, outcome=Outcome.COLLISION, mode=Mode.DETERMINISTIC),
                  rec(0, 1500), rec(0, 2000)],
                 protocol=ProtocolKind.CF_MAC, duration_us=10_000)
    assert steady_state_start(t) == 872

    all_det = trace_of([rec(0, 0), rec(0, 500)], duration_us=1000)
    assert steady_state_start(all_det) == 0

    legacy_only = trace_of([rec(0, 0, mode=Mode.LEGACY)], duration_us=1000)
    assert steady_state_start(legacy_only) is None


# -- assembled report ---------------------------------------------------------

def test_compute_report_round_numbers():
    # two stations alternating on a fixed 200 us grid, one early collision
    rows = [rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
            rec(1, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY)]
    rows += [rec(0, 1000 + i * 200) for i in range(10)]
    rows += [rec(1, 1100 + i * 200) for i in range(10)]
    t = trace_of(rows, duration_us=4000)
    rep = compute_report(t)
    assert rep.window == (0, 4000)
    assert rep.per_station_throughput == [pytest.approx(10 * 1470 * 8 / 4000)] * 2
    assert rep.aggregate_throughput == pytest.approx(20 * 1470 * 8 / 4000)
    assert rep.jfi == pytest.approx(1.0)
    assert rep.min_max_ratio == pytest.approx(1.0)
    # station 0 gaps: 1000 us after the opening collision, then nine of 200
    assert rep.interarrival[0] == IatStats(mean=280.0, std=240.0,
                                           min=200.0, max=1000.0)
    assert rep.per_station_loss == [pytest.approx(1 / 11)] * 2
    assert rep.aggregate_loss == pytest.approx(2 / 22)
    assert rep.convergence_us == 272


def test_compute_report_empty_window_degrades_to_none():
    # the window excludes every record: it starts after them or ends first
    for duration_us, warmup_us in ((1000, 500), (100, 0)):
        rep = compute_report(trace_of([rec(0, 200), rec(0, 300)],
                                      duration_us=duration_us,
                                      warmup_us=warmup_us))
        assert rep.per_station_throughput == [0.0]
        assert rep.aggregate_throughput == 0.0
        assert rep.jfi is None
        assert rep.min_max_ratio is None
        assert rep.interarrival == {0: None}
        assert rep.per_station_loss == [None]
        assert rep.aggregate_loss is None


def test_zero_record_trace(tmp_path):
    t = trace_of([], n_stations=2, duration_us=1000)
    rep = compute_report(t)
    assert rep.per_station_throughput == [0.0, 0.0]
    assert (rep.jfi, rep.min_max_ratio, rep.aggregate_loss) == (None,) * 3
    assert rep.interarrival == {0: None, 1: None}
    assert rep.per_station_loss == [None, None]
    assert rep.convergence_us == 0  # nothing ever collided
    assert steady_state_start(t) is None
    assert len(t.start) == 0
    t.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == \
        b"station,start_us,end_us,outcome,mode\r\n"


def test_hand_built_trace_rejects_unknown_stations():
    for station in (-1, 2):
        with pytest.raises(ValueError):
            trace_of([rec(0, 0), rec(station, 100)], n_stations=2)


@pytest.mark.parametrize("silent", [0, 1, 3])
def test_station_that_never_transmits(silent):
    # the others keep a 100 us cadence with one collision each; the silent
    # station's empty group must not shift its neighbours' statistics
    rows = [rec(i, 10 * i + 100 * k,
                outcome=Outcome.COLLISION if k == 2 else Outcome.SUCCESS)
            for i in range(4) if i != silent for k in range(5)]
    rep = compute_report(trace_of(rows, n_stations=4, duration_us=1000))
    for i in range(4):
        if i == silent:
            assert rep.per_station_throughput[i] == 0.0
            assert rep.interarrival[i] is None
            assert rep.per_station_loss[i] is None
        else:
            assert rep.per_station_throughput[i] == 4 * 1470 * 8 / 1000
            assert rep.interarrival[i] == IatStats(mean=100.0, std=0.0,
                                                   min=100.0, max=100.0)
            assert rep.per_station_loss[i] == 0.2
    assert rep.aggregate_loss == 3 / 15
    assert rep.jfi == pytest.approx(0.75)
    assert rep.min_max_ratio == 0.0


def test_report_as_dict_is_json_shaped():
    t = trace_of([rec(0, 0), rec(0, 100)], duration_us=1000)
    d = compute_report(t).as_dict()
    assert set(d) == {"window_us", "per_station_throughput_mbps",
                      "aggregate_throughput_mbps", "jfi", "min_max_ratio",
                      "interarrival_us", "per_station_loss", "aggregate_loss",
                      "convergence_us"}
    assert d["window_us"] == [0, 1000]
    assert d["interarrival_us"]["0"]["mean"] == 100.0
