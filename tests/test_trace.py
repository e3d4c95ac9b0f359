"""Trace tests: the CSV writer against csv.writer, the reader against the
writer, and column validation."""
import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wlansim import trace as trace_module
from wlansim.engine import ConfigError, SimConfig, run_experiment
from wlansim.protocols import ProtocolKind
from wlansim.trace import (MODES, OUTCOMES, TRACE_COLUMNS, TraceLog,
                           TransmissionRecord)


def config_of(n_stations, duration_us=1_000_000, warmup_us=0):
    return SimConfig(n_stations=n_stations, protocol=ProtocolKind.CF_MAC,
                     rate=48, duration_s=duration_us / 1e6,
                     warmup_s=warmup_us / 1e6)


INT64 = np.iinfo(np.int64)
DATA_US = config_of(1).data_us  # every frame's airtime: end = start + DATA_US
LAST_START = int(INT64.max) - DATA_US  # its end is INT64_MAX
# values where the digit count changes; no run starts before 0
EDGES = sorted({v for k in range(19) for v in (10 ** k - 1, 10 ** k)}
               | {int(INT64.max)})
# the starts that put the start or the end on an edge
EDGE_STARTS = sorted({v for v in EDGES if v <= LAST_START}
                     | {v - DATA_US for v in EDGES if v >= DATA_US})
STARTS = st.integers(0, LAST_START) | st.sampled_from(EDGE_STARTS)
ROWS = st.lists(st.tuples(st.integers(0, 2 ** 31 - 2), STARTS,
                          st.integers(0, len(OUTCOMES) - 1),
                          st.integers(0, len(MODES) - 1)), max_size=12)
# every outcome in both modes
LABELS = [(0, 10 * k, o, m) for k, (o, m) in enumerate(
    (o, m) for o in range(len(OUTCOMES)) for m in range(len(MODES)))]


def in_order(rows):
    """The rows in (start, station) order, the order a trace keeps."""
    return sorted(rows, key=lambda r: (r[1], r[0]))


def trace_of(rows, n_stations):
    return TraceLog(config_of(n_stations),
                    **dict(zip(("station", "start", "outcome", "mode"),
                               zip(*in_order(rows)) if rows else ((),) * 4)))


def csv_writer_bytes(rows):
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(TRACE_COLUMNS)
    writer.writerows((i, s, s + DATA_US, OUTCOMES[o].value, MODES[m].value)
                     for i, s, o, m in rows)
    return text.getvalue().encode()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS)
@example(rows=[(0, v, 0, 0) for v in EDGE_STARTS])
@example(rows=[(0, 0, 2, 1)])
@example(rows=[])
def test_write_csv_matches_csv_writer(rows, tmp_path, monkeypatch):
    # chunks of 3 rows, so digit widths change from one chunk to the next
    monkeypatch.setattr(trace_module, "_ROWS_PER_WRITE", 3)
    path = tmp_path / "t.csv"
    n_stations = max((r[0] for r in rows), default=0) + 1
    trace_of(rows, n_stations).write_csv(path)
    assert path.read_bytes() == csv_writer_bytes(in_order(rows))


def test_write_csv_matches_csv_writer_on_a_long_run(tmp_path):
    # the real chunk size on a CF-MAC run past 10**8 us, where start and end
    # gain a third digit group partway through; the last chunk is shorter
    # than the others
    config = SimConfig(n_stations=12, protocol=ProtocolKind.CF_MAC, rate=48,
                       duration_s=101, warmup_s=1)
    trace, _ = run_experiment(config)
    chunk = trace_module._ROWS_PER_WRITE
    assert trace.start[0] < 10 ** 8 <= trace.start[-1]
    assert len(trace.start) > chunk and len(trace.start) % chunk
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    assert path.read_bytes() == csv_writer_bytes(zip(
        trace.station.tolist(), trace.start.tolist(), trace.outcome.tolist(),
        trace.mode.tolist()))


def good_columns(**changes):
    columns = dict(station=[0, 1], start=[1, 2], outcome=[0, 2], mode=[0, 0])
    columns.update(changes)
    return columns


@pytest.mark.parametrize("columns, match", [
    pytest.param(dict(station=[0, 1, 0], start=[0, 1], outcome=[0, 0],
                      mode=[0]), "1-D and equally long",
                 id="unequal_lengths"),
    pytest.param(dict(station=[[0, 1]], start=[[0, 1]], outcome=[[0, 0]],
                      mode=[[0, 0]]), "1-D and equally long",
                 id="two_dimensional"),
    pytest.param(dict(station=0, start=0, outcome=0, mode=0),
                 "1-D and equally long", id="scalars"),
    # a cast would truncate these to stations [0, 1] and outcomes [0, 2]
    pytest.param(good_columns(station=[0.7, 1.9]), "station must hold "
                 "integers, got dtype float64", id="float_station"),
    pytest.param(good_columns(outcome=[0.4, 2.5]), "outcome must hold "
                 "integers", id="float_outcome"),
    pytest.param(good_columns(start=[1.5, 2.9]),
                 "start must hold integers", id="float_times"),
    pytest.param(good_columns(station=[False, True]), "station must hold "
                 "integers, got dtype bool", id="bool_station"),
    pytest.param(good_columns(mode=np.array([0, 0], dtype=object)),
                 "mode must hold integers, got dtype object",
                 id="object_mode"),
    # would wrap to INT64_MIN
    pytest.param(good_columns(start=np.array([1, 2 ** 63], dtype=np.uint64)),
                 "start values must fit in int64", id="uint64_start"),
    # the last frame would end one past INT64_MAX
    pytest.param(good_columns(start=[1, LAST_START + 1]),
                 "last frame's end must fit in int64", id="end_past_int64"),
])
def test_malformed_columns_rejected(columns, match):
    with pytest.raises(ValueError, match=match):
        TraceLog(config_of(2), **columns)


def test_last_frame_may_end_at_int64_max():
    trace = TraceLog(config_of(2), **good_columns(start=[1, LAST_START]))
    assert trace.records[-1].end == INT64.max


@pytest.mark.parametrize("station", [-1, 2, 2 ** 40])
def test_constructor_rejects_unknown_stations(station):
    with pytest.raises(ValueError, match=f"station {station} outside 0..1"):
        TraceLog(config_of(2), station=[0, station, 1],
                 start=[0, 10, 20], outcome=[0, 0, 0], mode=[0, 0, 0])


@pytest.mark.parametrize("column,code,count", [
    ("outcome", -1, len(OUTCOMES)), ("outcome", len(OUTCOMES), len(OUTCOMES)),
    ("mode", -1, len(MODES)), ("mode", len(MODES), len(MODES))])
def test_constructor_rejects_unknown_codes(column, code, count):
    columns = dict(station=[0, 1, 0], start=[0, 10, 20], outcome=[0, 1, 2],
                   mode=[0, 1, 0])
    columns[column][1] = code
    with pytest.raises(ValueError,
                       match=f"{column} {code} outside 0..{count - 1}"):
        TraceLog(config_of(2), **columns)


@pytest.mark.parametrize("duration_us,warmup_us", [
    (100, 100), (100, 250), (100, -1), (0, 0)])
def test_window_must_leave_a_measured_span(duration_us, warmup_us):
    # compute_report divides by duration_us - warmup_us; no config with an
    # empty window is built, so no trace, built or read, has one
    with pytest.raises(ConfigError):
        config_of(2, duration_us, warmup_us)


def test_window_of_one_microsecond_is_accepted():
    TraceLog(config_of(2, duration_us=100, warmup_us=99))


def test_negative_start_rejected(tmp_path):
    # no run starts before 0; the rows are in start order, so the first
    # row's start is the one that is checked
    with pytest.raises(ValueError, match="trace start -1 is negative"):
        TraceLog(config_of(2), **good_columns(start=[-1, 2]))
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n"
                     b"0,-1,271,success,legacy\r\n0,2,274,success,legacy\r\n")
    with pytest.raises(ValueError, match="trace start -1 is negative"):
        TraceLog.read_csv(path, config_of(2))


def test_rows_out_of_start_order_rejected(tmp_path):
    # a later row may share its start, but not start earlier
    columns = dict(station=[1, 0, 0], start=[10, 10, 20], outcome=[0, 0, 0],
                   mode=[0, 0, 0])
    TraceLog(config_of(2), **columns)
    columns["start"] = [10, 20, 10]
    with pytest.raises(ValueError, match="start order"):
        TraceLog(config_of(2), **columns)
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n"
                     b"0,20,292,success,legacy\r\n0,10,282,success,legacy\r\n")
    with pytest.raises(ValueError, match="start order"):
        TraceLog.read_csv(path, config_of(2))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=ROWS)
@example(rows=LABELS)
@example(rows=[(0, v, 0, 0) for v in EDGE_STARTS])
@example(rows=[])
def test_read_csv_inverts_write_csv(rows, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    n_stations = max((r[0] for r in rows), default=0) + 1
    trace = trace_of(rows, n_stations)
    trace.write_csv(first)
    back = TraceLog.read_csv(first, config_of(n_stations))
    for name in ("station", "start", "outcome", "mode"):
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
    b"station,start_us,end_us,outcome,mode\n0,10,282,success,legacy\n",
], ids=["empty_file", "missing_column", "reordered", "no_header",
        "lf_line_ends"])
def test_read_csv_rejects_a_foreign_header(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text)
    with pytest.raises(ValueError, match="trace header"):
        TraceLog.read_csv(path, config_of(2))


# rows write_csv never writes, each given the \r\n it ends every row with
ROWS_WRITE_CSV_NEVER_WRITES = [
    b"0,10,15,lost,legacy", b"0,10,15,success,burst", b"0,10,15,success",
    b"0,10,15,success,legacy,1", b"0,ten,15,success,legacy",
    b"2,10,15,success,legacy", b"0,99999999999999999999,15,success,legacy",
    b"0,10,-99999999999999999999,success,legacy",
    # an end_us one off start_us + 272 us, and one of 524 us, the airtime
    # of the same frame at 24 Mb/s
    b"0,10,281,success,legacy", b"0,10,283,success,legacy",
    b"0,10,534,success,legacy",
    # int() reads these as 0, 10, 282, but write_csv never writes them so
    b"0,1_0,28_2,success,legacy", b"+0, 10,+282,success,legacy",
    b"0,010,282,success,legacy", b"0,10,282 ,success,legacy"]


@pytest.mark.parametrize("text", [
    pytest.param(row + b"\r\n", id=row.decode())
    for row in ROWS_WRITE_CSV_NEVER_WRITES] + [
    # the rows that follow the header, as the file holds them
    pytest.param(b"0,10,282,success,legacy", id="no_final_crlf"),
    pytest.param(b"0,10,282,success,legacy\n", id="bare_lf"),
    pytest.param(b"0,10,282,success,legacy\r\n\r\n", id="empty_line_after"),
    pytest.param(b"0,10,282,succ,legacy\r\n", id="label_prefix"),
    pytest.param(b"0,-,282,success,legacy\r\n", id="lone_minus"),
    # numpy < 2 parses the rows and stops short of the text, with a warning
    pytest.param(b"0,10,282,success,legacy\r\nend", id="text_after_rows"),
    # 10**19: a 20-digit start, with its end 272 us later
    pytest.param(b"0,10000000000000000000,10000000000000000272,success,"
                 b"legacy\r\n", id="20_digit_start")])
def test_read_csv_rejects_malformed_rows(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n" + text)
    with pytest.raises(ValueError):
        TraceLog.read_csv(path, config_of(2))


@pytest.mark.parametrize("row", [0, 3, 5, 7])
def test_read_csv_names_the_first_row_that_differs(tmp_path, monkeypatch,
                                                    row):
    # chunks of 3 rows, so rows 3 and 5 lie in the second and 7 in the third
    monkeypatch.setattr(trace_module, "_ROWS_PER_WRITE", 3)
    path = tmp_path / "t.csv"
    trace_of([(0, 10 * k, 0, 0) for k in range(8)], 1).write_csv(path)
    text = path.read_bytes()
    good = f"\r\n0,{10 * row},{10 * row + DATA_US},".encode()
    bad = f"\r\n0,{10 * row},{10 * row + DATA_US + 1},".encode()  # one byte
    assert text.count(good) == 1 and len(bad) == len(good)
    path.write_bytes(text.replace(good, bad))
    with pytest.raises(ValueError, match=f"trace row {row} differs"):
        TraceLog.read_csv(path, config_of(1))


@pytest.mark.parametrize("rows,row", [
    pytest.param(b"0,10,282,succ,legacy\r\n", 0, id="label_prefix"),
    pytest.param(b"0,ten,282,success,legacy\r\n", 0, id="ten"),
    pytest.param(b"0,10,282,success,legacy\r\n0,20,292,success,legacy\n", 1,
                 id="bare_lf"),
    pytest.param(b"0,10,282,success,legacy\r\n0,20,292,success,legacy", 1,
                 id="no_final_crlf"),
    pytest.param(b"0,10,282,success,legacy\r\n\r\n", 1, id="empty_line"),
    pytest.param(b"0,10,282,success,legacy\r\n0,20,292,success,burst\r\n", 1,
                 id="bad_label"),
    pytest.param(b"0,10,282,success,legacy\r\n1,20,292,success,legacy\r\n"
                 b"2,30,302,success,legacy\r\n", 2, id="station_out_of_range"),
    pytest.param(b"0,10,282,success,legacy\r\n0,20,293,success,legacy\r\n"
                 b"0,1,0,lost\r\n", 1, id="differs_before_a_bad_row")])
def test_read_csv_names_the_file_and_the_row_at_fault(tmp_path, rows, row):
    # numpy's parse and reshape errors named neither
    path = tmp_path / "t.csv"
    path.write_bytes(b"station,start_us,end_us,outcome,mode\r\n" + rows)
    with pytest.raises(ValueError) as refused:
        TraceLog.read_csv(path, config_of(2))
    assert str(refused.value).startswith(f"{path}: trace row {row} ")


def test_records_view_matches_the_columns():
    # the per-row view other tools iterate: the same rows, as objects
    records = trace_of(LABELS, 1).records
    assert all(type(r) is TransmissionRecord for r in records)
    assert [(r.station, r.start, r.end, OUTCOMES.index(r.outcome),
             MODES.index(r.mode)) for r in records] == [
        (i, s, s + DATA_US, o, m) for i, s, o, m in LABELS]
