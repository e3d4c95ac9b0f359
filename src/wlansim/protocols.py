"""Station-side MAC state machines for the three contention protocols.

CSMA/CA is the binary exponential backoff baseline. CSMA/ECA replaces the
post-success draw with a fixed deterministic counter. CF-MAC additionally owns
a Deterministic mode: after a success the station leaves the slotted backoff
entirely and schedules its next attempt one full cycle after the transmission
it just made, probing the channel at that instant. Probes tolerate one busy
finding per spell (two-slot hold, then a reduced random backoff); a second
busy finding, like a second consecutive collision, drops the station back to
plain CSMA/CA.

All transitions are pure: they take a StationState and return a new one.
Times are integer microseconds throughout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum

from .schedule import ScheduleTable, DEFAULT_TABLE, cycle_timer

CW_MIN = 16              # minimum contention window size (draws span [0, CW_MIN - 1])
MAX_BACKOFF_STAGE = 6    # k never grows past this
MAX_RETRIES = 6          # retransmissions per packet before it is discarded
ECA_BACKOFF = CW_MIN // 2 - 1  # deterministic post-success counter: fires on the 8th slot
REDUCED_WINDOW = 7       # probe fallback draws from [0, REDUCED_WINDOW - 1]
STICKINESS_LIMIT = 2     # consecutive deterministic collisions tolerated before reverting
BUSY_LIMIT = 2           # busy probe findings tolerated before reverting


class ProtocolKind(Enum):
    CSMA_CA = "CsmaCa"
    CSMA_ECA = "CsmaEca"
    CF_MAC = "CfMac"


class Mode(Enum):
    LEGACY = "legacy"
    DETERMINISTIC = "deterministic"


class ProbeAction(Enum):
    TRANSMIT_NOW = "transmit_now"
    HOLD_PROBE = "hold_probe"
    REDUCED_BACKOFF = "reduced_backoff"
    REVERT_LEGACY = "revert_legacy"


class RandomSource:
    """Seeded uniform-integer source; one instance drives a whole run."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def next_uniform(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return self._rng.randint(lo, hi)

    def chance(self, probability: float) -> bool:
        return self._rng.random() < probability


@dataclass(frozen=True)
class BackoffState:
    k: int = 0            # current backoff stage
    b: int = 0            # remaining backoff slots
    cw_min: int = CW_MIN
    m: int = MAX_BACKOFF_STAGE


@dataclass(frozen=True)
class StationState:
    station: int
    kind: ProtocolKind
    backoff: BackoffState
    ret: int = 0
    r_max: int = MAX_RETRIES
    mode: Mode = Mode.LEGACY
    consec_failures: int = 0
    busy_probes: int = 0
    deadline: int | None = None  # absolute [us], set only in Deterministic mode
    successes: int = 0
    failures: int = 0


@dataclass(frozen=True)
class ProbeDecision:
    action: ProbeAction
    slots: int | None
    state: StationState


def draw_backoff(k: int, rng: RandomSource, cw_min: int = CW_MIN,
                 m: int = MAX_BACKOFF_STAGE) -> int:
    """Uniform draw from the stage-k contention window [0, 2^k * cw_min - 1]."""
    if not 0 <= k <= m:
        raise ValueError(f"backoff stage out of range: {k}")
    return rng.next_uniform(0, (cw_min << k) - 1)


def initial_station(station: int, kind: ProtocolKind, rng: RandomSource) -> StationState:
    """A freshly powered station: legacy mode, stage 0, random counter."""
    return StationState(station=station, kind=kind,
                        backoff=BackoffState(k=0, b=draw_backoff(0, rng)))


def _reverted(state: StationState, rng: RandomSource, **changes) -> StationState:
    # back to plain CSMA/CA: stage 0, fresh draw, timers cleared
    return replace(state, mode=Mode.LEGACY, ret=0, consec_failures=0, busy_probes=0,
                   deadline=None, backoff=BackoffState(k=0, b=draw_backoff(0, rng)),
                   **changes)


def on_success(state: StationState, tx_start_us: int, n: int, rate: int,
               rng: RandomSource, table: ScheduleTable = DEFAULT_TABLE) -> StationState:
    """ACK received for the transmission that started at tx_start_us."""
    successes = state.successes + 1
    if state.kind is ProtocolKind.CSMA_CA:
        return replace(state, successes=successes, ret=0,
                       backoff=BackoffState(k=0, b=draw_backoff(0, rng)))
    if state.kind is ProtocolKind.CSMA_ECA:
        return replace(state, successes=successes, ret=0,
                       backoff=BackoffState(k=0, b=ECA_BACKOFF))
    # CF-MAC: leave the slotted contention, next attempt one cycle from this one
    return replace(state, successes=successes, ret=0, mode=Mode.DETERMINISTIC,
                   consec_failures=0, busy_probes=0, backoff=BackoffState(k=0, b=0),
                   deadline=tx_start_us + cycle_timer(n, rate, table))


def on_failure(state: StationState, rng: RandomSource, tx_start_us: int | None = None,
               n: int | None = None, rate: int | None = None,
               table: ScheduleTable = DEFAULT_TABLE) -> StationState:
    """ACK timeout elapsed for the station's last transmission."""
    failures = state.failures + 1
    if state.mode is Mode.LEGACY:
        ret = state.ret + 1
        if ret >= state.r_max:
            # retry budget exhausted: drop the packet, start fresh on the next one
            return replace(state, failures=failures, ret=0,
                           backoff=BackoffState(k=0, b=draw_backoff(0, rng)))
        k = min(state.backoff.k + 1, state.backoff.m)
        return replace(state, failures=failures, ret=ret,
                       backoff=BackoffState(k=k, b=draw_backoff(k, rng)))
    # Deterministic mode tolerates one collision before giving up the slot
    consec = state.consec_failures + 1
    if consec >= STICKINESS_LIMIT:
        return _reverted(state, rng, failures=failures)
    if tx_start_us is None or n is None or rate is None:
        raise ValueError("deterministic failure needs tx_start_us, n and rate "
                         "to schedule the next attempt")
    return replace(state, failures=failures, consec_failures=consec,
                   deadline=tx_start_us + cycle_timer(n, rate, table))


def legacy_tick(state: StationState, slot_idle: bool) -> StationState:
    """One observed slot: decrement on idle, freeze on busy, floor at zero."""
    if state.mode is not Mode.LEGACY:
        raise ValueError("slot countdown only runs in legacy mode")
    if not slot_idle or state.backoff.b == 0:
        return state
    return replace(state, backoff=replace(state.backoff, b=state.backoff.b - 1))


def cfmac_probe(state: StationState, channel_idle: bool, now_us: int,
                rng: RandomSource) -> ProbeDecision:
    """Decide what a Deterministic-mode station does at a probe checkpoint.

    Checkpoints are the deadline instant, the end of the two-slot hold window,
    and the reduced-backoff fire instant; `channel_idle` is the state the
    station observed there. One failed hold window arms the reduced backoff;
    any further busy finding before a success reverts the station to legacy
    contention.
    """
    if state.mode is not Mode.DETERMINISTIC or state.deadline is None:
        raise ValueError("probe is only defined in deterministic mode")
    if now_us < state.deadline:
        raise ValueError("probe fired before the scheduled deadline")
    if channel_idle:
        return ProbeDecision(ProbeAction.TRANSMIT_NOW, None, state)
    if state.busy_probes >= BUSY_LIMIT - 1:
        return ProbeDecision(ProbeAction.REVERT_LEGACY, None, _reverted(state, rng))
    if now_us == state.deadline:
        return ProbeDecision(ProbeAction.HOLD_PROBE, None, state)
    slots = rng.next_uniform(0, REDUCED_WINDOW - 1)
    return ProbeDecision(ProbeAction.REDUCED_BACKOFF, slots,
                         replace(state, busy_probes=state.busy_probes + 1))
