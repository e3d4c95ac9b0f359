"""Metrics unit tests on hand-built traces with hand-computed expectations."""
import math

import pytest
from hypothesis import assume, given, strategies as st

from wlansim.metrics import (
    IatStats,
    compute_report,
    convergence_time,
    interarrival_stats,
    jfi,
    loss_fraction,
    min_max_ratio,
    normalized_interarrival,
    per_station_loss,
    steady_state_start,
    throughput_per_station,
)
from wlansim.protocols import Mode, ProtocolKind
from wlansim.trace import Outcome, TraceLog, TransmissionRecord


def rec(station, start, outcome=Outcome.SUCCESS, mode=Mode.DETERMINISTIC, airtime=272):
    return TransmissionRecord(station=station, start=start, end=start + airtime,
                              outcome=outcome, mode=mode)


def trace_of(records, protocol=ProtocolKind.CF_MAC, n_stations=None,
             duration_us=1_000_000, warmup_us=0, payload=1470):
    if n_stations is None:
        n_stations = max((r.station for r in records), default=0) + 1
    return TraceLog.from_records(
        sorted(records, key=lambda r: (r.start, r.station)), protocol=protocol,
        n_stations=n_stations, rate=48, payload_bytes=payload,
        duration_us=duration_us, warmup_us=warmup_us, seed=1, cycle_us=6300)


# -- throughput ---------------------------------------------------------------

def test_throughput_thousand_frames_in_a_second():
    # 1000 * 1470 B * 8 over 1 s is 11.76 Mb/s.
    t = trace_of([rec(0, i * 1000) for i in range(1000)])
    assert throughput_per_station(t) == [pytest.approx(11.76)]


def test_throughput_counts_starts_inside_window_only():
    t = trace_of([rec(0, 99), rec(0, 100), rec(0, 500), rec(0, 1000)],
                 duration_us=2000)
    got = throughput_per_station(t, window=(100, 1000))
    # only the starts at 100 and 500 land in [100, 1000)
    assert got == [pytest.approx(2 * 1470 * 8 / 900)]


def test_throughput_ignores_collisions():
    t = trace_of([rec(0, 0), rec(0, 1000, outcome=Outcome.COLLISION),
                  rec(0, 2000, outcome=Outcome.CCA_ERROR)], duration_us=10_000)
    assert throughput_per_station(t) == [pytest.approx(1470 * 8 / 10_000)]


def test_throughput_respects_warmup_default_window():
    t = trace_of([rec(0, 10), rec(0, 600)], duration_us=1000, warmup_us=500)
    assert throughput_per_station(t) == [pytest.approx(1470 * 8 / 500)]


def test_bad_window_rejected():
    t = trace_of([rec(0, 0)])
    with pytest.raises(ValueError):
        throughput_per_station(t, window=(100, 100))


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
    stats = interarrival_stats(t)[0]
    assert stats == IatStats(mean=100.0, std=0.0, min=100.0, max=100.0)


def test_interarrival_uneven_gaps():
    t = trace_of([rec(0, 0), rec(0, 50), rec(0, 250)], duration_us=1000)
    stats = interarrival_stats(t)[0]
    # gaps 50 and 200: population std
    assert stats == IatStats(mean=125.0, std=75.0, min=50.0, max=200.0)


def test_interarrival_counts_failed_attempts_too():
    t = trace_of([rec(0, 0), rec(0, 300, outcome=Outcome.COLLISION), rec(0, 400)],
                 duration_us=1000)
    stats = interarrival_stats(t)[0]
    assert (stats.min, stats.max) == (100.0, 300.0)


def test_interarrival_needs_two_attempts():
    t = trace_of([rec(0, 0), rec(1, 100)], duration_us=1000)
    got = interarrival_stats(t)
    assert got[0] is None and got[1] is None


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
    assert per_station_loss(t) == [pytest.approx(0.5), pytest.approx(0.0), None]


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
    records = [rec(0, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY),
               rec(1, 0, outcome=Outcome.COLLISION, mode=Mode.LEGACY)]
    records += [rec(0, 1000 + i * 200) for i in range(10)]
    records += [rec(1, 1100 + i * 200) for i in range(10)]
    t = trace_of(records, duration_us=4000)
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
    t = trace_of([rec(0, 200), rec(0, 300)], duration_us=1000)
    for window in ((500, 1000), (0, 100)):
        rep = compute_report(t, window=window)
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
    assert t.records == []
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
    records = [rec(i, 10 * i + 100 * k,
                   outcome=Outcome.COLLISION if k == 2 else Outcome.SUCCESS)
               for i in range(4) if i != silent for k in range(5)]
    rep = compute_report(trace_of(records, n_stations=4, duration_us=1000))
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
