"""Trace tests: the CSV writer against csv.writer, the reader against the
writer, and column validation."""
import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wlansim import trace as trace_module
from wlansim.engine import ConfigError, SimConfig
from wlansim.protocols import ProtocolKind
from wlansim.trace import (MODES, OUTCOMES, TRACE_COLUMNS, TraceLog,
                           TransmissionRecord)

INT64 = np.iinfo(np.int64)
# values where the digit count or the sign changes
EDGES = sorted({s * v for k in range(19) for v in (10 ** k - 1, 10 ** k)
                for s in (1, -1)} | {int(INT64.min), int(INT64.max)})
TIMES = st.integers(int(INT64.min), int(INT64.max)) | st.sampled_from(EDGES)
ROWS = st.lists(st.tuples(st.integers(0, 2 ** 31 - 2), TIMES, TIMES,
                          st.integers(0, len(OUTCOMES) - 1),
                          st.integers(0, len(MODES) - 1)), max_size=12)
# every outcome in both modes
LABELS = [(0, 10 * k, 10 * k + 5, o, m) for k, (o, m) in enumerate(
    (o, m) for o in range(len(OUTCOMES)) for m in range(len(MODES)))]


def config_of(n_stations, duration_us=1_000_000, warmup_us=0):
    return SimConfig(n_stations=n_stations, protocol=ProtocolKind.CF_MAC,
                     rate=48, duration_s=duration_us / 1e6,
                     warmup_s=warmup_us / 1e6)


def in_order(rows):
    """The rows in (start, station) order, the order a trace keeps."""
    return sorted(rows, key=lambda r: (r[1], r[0]))


def trace_of(rows, n_stations):
    return TraceLog(config_of(n_stations),
                    **dict(zip(("station", "start", "end", "outcome", "mode"),
                               zip(*in_order(rows)) if rows else ((),) * 5)))


def csv_writer_bytes(rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows((i, s, e, OUTCOMES[o].value, MODES[m].value)
                     for i, s, e, o, m in rows)
    return text.getvalue().encode()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS)
@example(rows=[(0, v, -v - 1, 0, 0) for v in EDGES])
@example(rows=[(0, 0, 0, 2, 1)])
@example(rows=[])
def test_write_csv_matches_csv_writer(rows, tmp_path, monkeypatch):
    # chunks of 3 rows, so digit widths change from one chunk to the next
    monkeypatch.setattr(trace_module, "_ROWS_PER_WRITE", 3)
    path = tmp_path / "t.csv"
    n_stations = max((r[0] for r in rows), default=0) + 1
    trace_of(rows, n_stations).write_csv(path)
    assert path.read_bytes() == csv_writer_bytes(in_order(rows))


@pytest.mark.parametrize("columns", [
    pytest.param(dict(station=[0, 1, 0], start=[0, 1], end=[5, 6, 7],
                      outcome=[0, 0], mode=[0]), id="unequal_lengths"),
    pytest.param(dict(station=[[0, 1]], start=[[0, 1]], end=[[5, 6]],
                      outcome=[[0, 0]], mode=[[0, 0]]), id="two_dimensional"),
    pytest.param(dict(station=0, start=0, end=5, outcome=0, mode=0),
                 id="scalars"),
])
def test_malformed_columns_rejected(columns):
    with pytest.raises(ValueError, match="1-D and equally long"):
        TraceLog(config_of(2), **columns)


@pytest.mark.parametrize("station", [-1, 2, 2 ** 40])
def test_constructor_rejects_unknown_stations(station):
    with pytest.raises(ValueError, match=f"station {station} outside 0..1"):
        TraceLog(config_of(2), station=[0, station, 1],
                 start=[0, 10, 20], end=[5, 15, 25], outcome=[0, 0, 0],
                 mode=[0, 0, 0])


@pytest.mark.parametrize("column,code,count", [
    ("outcome", -1, len(OUTCOMES)), ("outcome", len(OUTCOMES), len(OUTCOMES)),
    ("mode", -1, len(MODES)), ("mode", len(MODES), len(MODES))])
def test_constructor_rejects_unknown_codes(column, code, count):
    columns = dict(station=[0, 1, 0], start=[0, 10, 20], end=[5, 15, 25],
                   outcome=[0, 1, 2], mode=[0, 1, 0])
    columns[column][1] = code
    with pytest.raises(ValueError,
                       match=f"{column} {code} outside 0..{count - 1}"):
        TraceLog(config_of(2), **columns)


@pytest.mark.parametrize("duration_us,warmup_us", [
    (100, 100), (100, 250), (100, -1), (0, 0)])
def test_window_must_leave_a_measured_span(duration_us, warmup_us, tmp_path):
    # compute_report divides by duration_us - warmup_us; a trace is refused
    # whatever its config's validate refuses
    config = config_of(2, duration_us, warmup_us)
    with pytest.raises(ConfigError):
        TraceLog(config)
    path = tmp_path / "t.csv"
    trace_of([], 2).write_csv(path)
    with pytest.raises(ConfigError):
        TraceLog.read_csv(path, config)


def test_window_of_one_microsecond_is_accepted():
    TraceLog(config_of(2, duration_us=100, warmup_us=99))


def test_rows_out_of_start_order_rejected(tmp_path):
    # a later row may share its start, but not start earlier
    columns = dict(station=[1, 0, 0], start=[10, 10, 20], end=[15, 15, 25],
                   outcome=[0, 0, 0], mode=[0, 0, 0])
    TraceLog(config_of(2), **columns)
    columns["start"] = [10, 20, 10]
    with pytest.raises(ValueError, match="start order"):
        TraceLog(config_of(2), **columns)
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n"
                     b"0,20,25,success,legacy\r\n0,10,15,success,legacy\r\n")
    with pytest.raises(ValueError, match="start order"):
        TraceLog.read_csv(path, config_of(2))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS)
@example(rows=LABELS)
@example(rows=[(0, v, -v - 1, 0, 0) for v in EDGES])
@example(rows=[])
def test_read_csv_inverts_write_csv(rows, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    n_stations = max((r[0] for r in rows), default=0) + 1
    trace = trace_of(rows, n_stations)
    trace.write_csv(first)
    back = TraceLog.read_csv(first, config_of(n_stations))
    for name in ("station", "start", "end", "outcome", "mode"):
        column = getattr(back, name)
        assert column.dtype == getattr(trace, name).dtype, name
        assert column.tolist() == getattr(trace, name).tolist(), name
    back.write_csv(second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("text", [
    b"",
    b"station,start_us,end_us,outcome\r\n",
    b"start_us,station,end_us,outcome,mode\r\n",
    b"0,10,15,success,legacy\r\n",
], ids=["empty_file", "missing_column", "reordered", "no_header"])
def test_read_csv_rejects_a_foreign_header(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError, match="trace header"):
        TraceLog.read_csv(path, config_of(2))


@pytest.mark.parametrize("row", [
    b"0,10,15,lost,legacy", b"0,10,15,success,burst", b"0,10,15,success",
    b"0,10,15,success,legacy,1", b"0,ten,15,success,legacy",
    b"2,10,15,success,legacy", b"0,99999999999999999999,15,success,legacy",
    b"0,10,-99999999999999999999,success,legacy"])
def test_read_csv_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n" + row
                     + b"\r\n")
    with pytest.raises(ValueError):
        TraceLog.read_csv(path, config_of(2))


def test_records_view_matches_the_columns():
    # the per-row view other tools iterate: the same rows, as objects
    records = trace_of(LABELS, 1).records
    assert all(type(r) is TransmissionRecord for r in records)
    assert [(r.station, r.start, r.end, OUTCOMES.index(r.outcome),
             MODES.index(r.mode)) for r in records] == LABELS
