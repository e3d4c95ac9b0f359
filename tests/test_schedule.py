import math
import pickle

import pytest
from hypothesis import given, strategies as st

from wlansim.engine import ConfigError, SimConfig
from wlansim.protocols import ProtocolKind
from wlansim.phy import SUPPORTED_RATES, UnsupportedRateError, phy_profile
from wlansim.schedule import DEFAULT_TABLE, ScheduleRow, ScheduleTable


def cycle(n, rate, table=DEFAULT_TABLE):
    return SimConfig(n_stations=n, protocol=ProtocolKind.CF_MAC, rate=rate,
                     schedule=table).cycle_us


def test_default_rows():
    expected = {
        6: (2233.5, 91.5, 2325),
        11: (1567.5, 132.5, 1700),
        12: (1197.5, 102.5, 1300),
        24: (681.5, 106.5, 788),
        48: (421.5, 103.5, 525),
    }
    for rate, (share, eps, total) in expected.items():
        row = DEFAULT_TABLE.rows[rate]
        assert row.share_us == share
        assert row.epsilon_us == eps
        assert row.total_us == total


def test_cycle_timer_values():
    assert cycle(12, 6) == 27900
    assert cycle(12, 48) == 6300
    assert cycle(1, 48) == 525
    assert cycle(53, 48) == 27825


def test_cycle_timer_errors():
    with pytest.raises(ConfigError):
        cycle(0, 6)
    with pytest.raises(UnsupportedRateError):
        cycle(4, 54)


def test_fractional_total_rejected():
    with pytest.raises(ValueError, match="whole microseconds"):
        ScheduleRow(share_us=100.3, epsilon_us=0.4)


@pytest.mark.parametrize("row", [
    ("400", "25"), (400, None), (True, 399), (float("nan"), 25),
    (float("inf"), 25), (10 ** 400, 0.5)],
    ids=["text", "none", "bool", "nan", "inf", "int_beyond_a_float"])
def test_schedule_row_refuses_itself(row):
    # a row built in code used to pass until its total_us was read, and then
    # raised a misleading "must be whole microseconds", a bare TypeError,
    # nothing (a bool), ValueError, OverflowError and OverflowError
    with pytest.raises(ValueError, match="whole microseconds"):
        ScheduleRow(*row)


_NUMBERS = st.integers(-10 ** 20, 10 ** 20) | st.floats(allow_nan=False,
                                                        allow_infinity=False)


@given(_NUMBERS, _NUMBERS)
def test_a_row_is_built_exactly_when_its_sum_is_whole(share, guard):
    total = share + guard
    if math.isfinite(total) and total == int(total):
        assert ScheduleRow(share, guard).total_us == total
    else:
        with pytest.raises(ValueError):
            ScheduleRow(share, guard)


@given(st.integers(min_value=1, max_value=500),
       st.sampled_from(SUPPORTED_RATES))
def test_cycle_is_linear_in_contenders(n, rate):
    assert cycle(n, rate) == n * DEFAULT_TABLE.rows[rate].total_us


def test_slot_covers_exchange():
    # each per-station slice must fit a full data+SIFS+ACK exchange plus DIFS,
    # otherwise the rotation could not be collision-free
    exchange = {6: 2090, 11: 1603, 12: 1082, 24: 578, 48: 326}  # at 1470 B
    for rate in SUPPORTED_RATES:
        cfg = SimConfig(n_stations=1, protocol=ProtocolKind.CF_MAC, rate=rate)
        assert cfg.exchange_us == exchange[rate]
        floor = cfg.exchange_us + phy_profile(rate).difs
        assert DEFAULT_TABLE.rows[rate].total_us >= floor


def test_custom_table():
    table = ScheduleTable(rows={48: ScheduleRow(share_us=400.0, epsilon_us=50.0)})
    assert cycle(2, 48, table) == 900
    with pytest.raises(ConfigError, match=r"rate 6\b"):
        cycle(2, 6, table)


def test_rows_cannot_change_under_a_checked_config():
    # a table keeps a read-only copy of the rows it was given, so a config
    # runs on the rows it was checked against
    rows = {48: ScheduleRow(share_us=400.0, epsilon_us=50.0)}
    table = ScheduleTable(rows=rows)
    rows[48] = ScheduleRow(share_us=100.0, epsilon_us=0.0)
    assert table.rows[48] == ScheduleRow(share_us=400.0, epsilon_us=50.0)
    for t in (table, DEFAULT_TABLE):
        with pytest.raises(TypeError):
            t.rows[48] = ScheduleRow(share_us=100.0, epsilon_us=0.0)
        with pytest.raises(TypeError):
            del t.rows[48]
    assert DEFAULT_TABLE.rows[48] == ScheduleRow(share_us=421.5,
                                                 epsilon_us=103.5)


def test_a_config_pickles_with_its_table():
    config = SimConfig(n_stations=2, protocol=ProtocolKind.CF_MAC, rate=48,
                       schedule=ScheduleTable(rows={48: ScheduleRow(
                           share_us=400.0, epsilon_us=50.0)}))
    back = pickle.loads(pickle.dumps(config))
    assert back == config and back.cycle_us == 900
    with pytest.raises(TypeError):
        back.schedule.rows[48] = DEFAULT_TABLE.rows[48]
