import pytest
from hypothesis import given, strategies as st

from wlansim.phy import (Preamble, SUPPORTED_RATES, UnsupportedRateError,
                         ack_airtime, data_airtime, phy_profile)

MPDU = 1470 + 38  # saturated payload plus MAC overhead


def test_profiles():
    ofdm = phy_profile(24)
    assert (ofdm.slot, ofdm.sifs, ofdm.difs) == (9, 10, 28)
    assert ofdm.preamble is Preamble.OFDM
    dsss = phy_profile(11)
    assert (dsss.slot, dsss.sifs, dsss.difs) == (20, 10, 50)
    assert dsss.preamble is Preamble.DSSS


def test_unsupported_rate():
    with pytest.raises(UnsupportedRateError):
        phy_profile(7)
    with pytest.raises(UnsupportedRateError):
        data_airtime(MPDU, 54)


def test_data_airtimes():
    expected = {6: 2036, 11: 1289, 12: 1028, 24: 524, 48: 272}
    for rate, airtime in expected.items():
        assert data_airtime(MPDU, rate) == airtime


def test_ack_airtimes():
    assert ack_airtime(phy_profile(6)) == 44
    assert ack_airtime(phy_profile(48)) == 44  # control frames ride 6 Mb/s
    assert ack_airtime(phy_profile(11)) == 304


def test_negative_bytes_rejected():
    with pytest.raises(ValueError):
        data_airtime(-1, 6)


def test_empty_mpdu_is_preamble_bound():
    # zero payload still costs the preamble plus one symbol of service bits
    assert data_airtime(0, 6) == 20 + 4
    assert data_airtime(0, 11) == 192


@given(st.integers(min_value=0, max_value=4000), st.integers(min_value=1, max_value=200))
def test_airtime_monotone_in_length(mpdu, extra):
    for rate in SUPPORTED_RATES:
        assert data_airtime(mpdu + extra, rate) >= data_airtime(mpdu, rate)


@given(st.integers(min_value=0, max_value=4000))
def test_airtime_monotone_in_rate(mpdu):
    # faster OFDM rates never take longer for the same frame
    for lo, hi in ((6, 12), (12, 24), (24, 48)):
        assert data_airtime(mpdu, hi) <= data_airtime(mpdu, lo)
