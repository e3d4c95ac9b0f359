"""802.11 PHY timing: slot structure and frame airtimes in integer microseconds.

Two preamble families are modeled: OFDM (ERP rates 6/12/24/48 Mb/s) and DSSS
(11 Mb/s with long preamble). Acknowledgements ride the family's base control
rate: 6 Mb/s OFDM, 1 Mb/s DSSS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

SUPPORTED_RATES = (6, 11, 12, 24, 48)  # [Mb/s]

MAC_OVERHEAD_BYTES = 38  # MAC header + FCS on top of the UDP payload
MAX_MSDU_BYTES = 2304    # largest payload one 802.11 data frame carries
ACK_MPDU_BYTES = 14

OFDM_PREAMBLE_US = 20       # [us] preamble + signal field
OFDM_SYMBOL_US = 4          # [us]
OFDM_SERVICE_BITS = 16
OFDM_TAIL_BITS = 6
DSSS_LONG_PREAMBLE_US = 192  # [us] long PLCP preamble + header
DSSS_ACK_RATE = 1            # [Mb/s] control rate for the DSSS family
OFDM_ACK_RATE = 6            # [Mb/s] control rate for the OFDM family


class Preamble(Enum):
    OFDM = "ofdm"
    DSSS = "dsss"


class UnsupportedRateError(ValueError):
    """Raised for data rates outside the modeled set."""


@dataclass(frozen=True)
class PhyProfile:
    """Per-rate slot structure, all durations in microseconds."""

    slot: int        # [us]
    sifs: int        # [us]
    difs: int        # [us]
    preamble: Preamble


_PROFILES = {
    6: PhyProfile(slot=9, sifs=10, difs=28, preamble=Preamble.OFDM),
    11: PhyProfile(slot=20, sifs=10, difs=50, preamble=Preamble.DSSS),
    12: PhyProfile(slot=9, sifs=10, difs=28, preamble=Preamble.OFDM),
    24: PhyProfile(slot=9, sifs=10, difs=28, preamble=Preamble.OFDM),
    48: PhyProfile(slot=9, sifs=10, difs=28, preamble=Preamble.OFDM),
}


def phy_profile(rate: int) -> PhyProfile:
    """Return the slot/IFS profile for a supported rate."""
    try:
        return _PROFILES[rate]
    except KeyError:
        raise UnsupportedRateError(f"unsupported rate: {rate} Mb/s "
                                   f"(supported: {SUPPORTED_RATES})") from None


def _ofdm_airtime(mpdu_bytes: int, rate: int) -> int:
    bits = OFDM_SERVICE_BITS + OFDM_TAIL_BITS + 8 * mpdu_bytes
    symbols = math.ceil(bits / (OFDM_SYMBOL_US * rate))
    return OFDM_PREAMBLE_US + OFDM_SYMBOL_US * symbols


def _dsss_airtime(mpdu_bytes: int, rate: int) -> int:
    return DSSS_LONG_PREAMBLE_US + math.ceil(8 * mpdu_bytes / rate)


def data_airtime(mpdu_bytes: int, rate: int) -> int:
    """Airtime of one MPDU in whole microseconds (ceil quantization)."""
    if mpdu_bytes < 0:
        raise ValueError("mpdu_bytes must be non-negative")
    if phy_profile(rate).preamble is Preamble.DSSS:
        return _dsss_airtime(mpdu_bytes, rate)
    return _ofdm_airtime(mpdu_bytes, rate)


def ack_airtime(profile: PhyProfile) -> int:
    """Airtime of a 14-byte ACK at the family's control rate."""
    if profile.preamble is Preamble.DSSS:
        return _dsss_airtime(ACK_MPDU_BYTES, DSSS_ACK_RATE)
    return _ofdm_airtime(ACK_MPDU_BYTES, OFDM_ACK_RATE)
