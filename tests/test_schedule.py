import pytest
from hypothesis import given, strategies as st

from wlansim.engine import SimConfig
from wlansim.protocols import ProtocolKind
from wlansim.phy import SUPPORTED_RATES, phy_profile
from wlansim.schedule import (DEFAULT_TABLE, ScheduleRow, ScheduleTable,
                              cycle_timer)


def test_default_rows():
    expected = {
        6: (2233.5, 91.5, 2325),
        11: (1567.5, 132.5, 1700),
        12: (1197.5, 102.5, 1300),
        24: (681.5, 106.5, 788),
        48: (421.5, 103.5, 525),
    }
    for rate, (share, eps, total) in expected.items():
        row = DEFAULT_TABLE.row(rate)
        assert row.share_us == share
        assert row.epsilon_us == eps
        assert row.total_us == total


def test_cycle_timer_values():
    assert cycle_timer(12, 6) == 27900
    assert cycle_timer(12, 48) == 6300
    assert cycle_timer(1, 48) == 525
    assert cycle_timer(53, 48) == 27825


def test_cycle_timer_errors():
    with pytest.raises(ValueError):
        cycle_timer(0, 6)
    with pytest.raises(ValueError):
        cycle_timer(4, 54)


def test_fractional_total_rejected():
    row = ScheduleRow(share_us=100.3, epsilon_us=0.4)
    with pytest.raises(ValueError):
        _ = row.total_us


@given(st.integers(min_value=1, max_value=500),
       st.sampled_from(SUPPORTED_RATES))
def test_cycle_is_linear_in_contenders(n, rate):
    assert cycle_timer(n, rate) == n * DEFAULT_TABLE.row(rate).total_us


def test_slot_covers_exchange():
    # each per-station slice must fit a full data+SIFS+ACK exchange plus DIFS,
    # otherwise the rotation could not be collision-free
    exchange = {6: 2090, 11: 1603, 12: 1082, 24: 578, 48: 326}  # at 1470 B
    for rate in SUPPORTED_RATES:
        cfg = SimConfig(n_stations=1, protocol=ProtocolKind.CF_MAC, rate=rate)
        assert cfg.exchange_us == exchange[rate]
        floor = cfg.exchange_us + phy_profile(rate).difs
        assert DEFAULT_TABLE.row(rate).total_us >= floor


def test_custom_table():
    table = ScheduleTable(rows={48: ScheduleRow(share_us=400.0, epsilon_us=50.0)})
    assert cycle_timer(2, 48, table) == 900
    with pytest.raises(ValueError):
        table.row(6)
