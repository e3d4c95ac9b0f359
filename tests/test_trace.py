"""Trace tests: the CSV writer against csv.writer, and column validation."""
import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wlansim import trace as trace_module
from wlansim.protocols import ProtocolKind
from wlansim.trace import MODES, OUTCOMES, TRACE_COLUMNS, TraceLog

INT64 = np.iinfo(np.int64)
PARAMS = dict(protocol=ProtocolKind.CF_MAC, rate=48, payload_bytes=1470,
              duration_us=1_000_000, warmup_us=0, seed=1, cycle_us=6300)
# values where the digit count or the sign changes
EDGES = sorted({s * v for k in range(19) for v in (10 ** k - 1, 10 ** k)
                for s in (1, -1)} | {int(INT64.min), int(INT64.max)})
TIMES = st.integers(int(INT64.min), int(INT64.max)) | st.sampled_from(EDGES)
ROWS = st.lists(st.tuples(st.integers(0, 2 ** 31 - 2), TIMES, TIMES,
                          st.integers(0, len(OUTCOMES) - 1),
                          st.integers(0, len(MODES) - 1)), max_size=12)


def trace_of(rows, n_stations):
    return TraceLog(n_stations=n_stations, **PARAMS,
                    **dict(zip(("station", "start", "end", "outcome", "mode"),
                               zip(*rows) if rows else ((),) * 5)))


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
    assert path.read_bytes() == csv_writer_bytes(rows)


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
        TraceLog(n_stations=2, **PARAMS, **columns)


@pytest.mark.parametrize("station", [-1, 2, 2 ** 40])
def test_constructor_rejects_unknown_stations(station):
    with pytest.raises(ValueError, match=f"station {station} outside 0..1"):
        TraceLog(n_stations=2, **PARAMS, station=[0, station, 1],
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
        TraceLog(n_stations=2, **PARAMS, **columns)


@pytest.mark.parametrize("duration_us,warmup_us", [
    (100, 100), (100, 250), (100, -1), (0, 0)])
def test_window_must_leave_a_measured_span(duration_us, warmup_us):
    # compute_report divides by duration_us - warmup_us
    params = {**PARAMS, "duration_us": duration_us, "warmup_us": warmup_us}
    with pytest.raises(ValueError, match="warmup_us"):
        TraceLog(n_stations=2, **params)
    with pytest.raises(ValueError, match="warmup_us"):
        TraceLog.from_records([], n_stations=2, **params)


def test_window_of_one_microsecond_is_accepted():
    TraceLog.from_records([], n_stations=2, **{**PARAMS, "duration_us": 100,
                                                "warmup_us": 99})
