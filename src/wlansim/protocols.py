"""Station-side MAC state machines for the three contention protocols.

CSMA/CA is the binary exponential backoff baseline. CSMA/ECA replaces the
post-success draw with a fixed deterministic counter. CF-MAC additionally owns
a Deterministic mode: after a success the station leaves the slotted backoff
entirely and schedules its next attempt one full cycle after the transmission
it just made, probing the channel at that instant. Probes tolerate one busy
finding per spell (two-slot hold, then a reduced random backoff); a second
busy finding, like a second consecutive collision, drops the station back to
plain CSMA/CA.

Each transition rule is written once: it updates the mutable StationState
the engine keeps per station in place and returns it. The public functions
apply the same rule to a copy of their input. Times are integer microseconds
throughout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .schedule import ScheduleTable, DEFAULT_TABLE, cycle_timer

CW_MIN = 16              # minimum contention window size (draws span [0, CW_MIN - 1])
MAX_BACKOFF_STAGE = 6    # k never grows past this
MAX_RETRIES = 6          # retransmissions per packet before it is discarded
ECA_BACKOFF = CW_MIN // 2 - 1  # deterministic post-success counter: fires on the 8th slot
REDUCED_WINDOW = 7       # probe fallback draws from [0, REDUCED_WINDOW - 1]
STICKINESS_LIMIT = 2     # consecutive deterministic collisions tolerated before reverting
BUSY_LIMIT = 2           # busy probe findings tolerated before reverting

# scheduling phase: what a station waits for before its next attempt
BACKOFF = 0   # legacy mode, the slot countdown of backoff.b
DEADLINE = 1  # deterministic, its absolute deadline
HOLD = 2      # deterministic, a hold window for the channel to clear
REDUCED = 3   # deterministic, the reduced backoff of backoff.b slots


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
        self._rng = random.Random(seed)
        self._bits = self._rng.getrandbits

    def next_uniform(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive: CPython's
        `randint` rejection sampling done in place, so the same stream."""
        w = hi - lo + 1
        if w < 1:
            raise ValueError(f"empty range [{lo}, {hi}]")
        k = w.bit_length()
        r = self._bits(k)
        while r >= w:
            r = self._bits(k)
        return lo + r

    def chance(self, probability: float) -> bool:
        return self._rng.random() < probability


@dataclass(slots=True)
class BackoffState:
    k: int = 0            # current backoff stage
    b: int = 0            # remaining backoff slots
    cw_min: int = CW_MIN
    m: int = MAX_BACKOFF_STAGE


@dataclass(slots=True)
class StationState:
    station: int
    kind: ProtocolKind
    backoff: BackoffState
    ret: int = 0
    r_max: int = MAX_RETRIES
    consec_failures: int = 0
    busy_probes: int = 0
    deadline: int | None = None  # absolute [us], set only in Deterministic mode
    phase: int = BACKOFF

    @property
    def mode(self) -> Mode:
        """Legacy exactly in the BACKOFF phase."""
        return Mode.LEGACY if self.phase == BACKOFF else Mode.DETERMINISTIC


@dataclass(frozen=True)
class ProbeDecision:
    action: ProbeAction
    slots: int | None
    state: StationState


def _copied(state: StationState) -> StationState:
    """A copy of the record that shares no mutable part with it."""
    b = state.backoff
    return StationState(state.station, state.kind,
                        BackoffState(b.k, b.b, b.cw_min, b.m), state.ret,
                        state.r_max, state.consec_failures,
                        state.busy_probes, state.deadline, state.phase)


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


def _revert(state: StationState, rng: RandomSource) -> None:
    # back to plain CSMA/CA: stage 0, fresh draw, timers cleared
    state.phase = BACKOFF
    state.ret = state.consec_failures = state.busy_probes = 0
    state.deadline = None
    state.backoff.k = 0
    state.backoff.b = rng.next_uniform(0, state.backoff.cw_min - 1)


def _succeed(state: StationState, tx_start_us: int, cycle_us: int,
             rng: RandomSource) -> StationState:
    state.ret = 0
    state.backoff.k = 0
    if state.kind is ProtocolKind.CSMA_CA:
        state.backoff.b = rng.next_uniform(0, state.backoff.cw_min - 1)
    elif state.kind is ProtocolKind.CSMA_ECA:
        state.backoff.b = ECA_BACKOFF
    else:
        # CF-MAC: leave the slotted contention, next attempt one cycle on
        state.backoff.b = 0
        state.phase = DEADLINE
        state.consec_failures = state.busy_probes = 0
        state.deadline = tx_start_us + cycle_us
    return state


def on_success(state: StationState, tx_start_us: int, n: int, rate: int,
               rng: RandomSource, table: ScheduleTable = DEFAULT_TABLE) -> StationState:
    """ACK received for the transmission that started at tx_start_us."""
    return _succeed(_copied(state), tx_start_us, cycle_timer(n, rate, table),
                    rng)


def _fail(state: StationState, tx_start_us: int | None, cycle_us: int | None,
          rng: RandomSource) -> StationState:
    if state.phase == BACKOFF:
        backoff = state.backoff
        state.ret += 1
        if state.ret >= state.r_max:
            # retry budget exhausted: drop the packet, start fresh on the next one
            state.ret = backoff.k = 0
        else:
            backoff.k = min(backoff.k + 1, backoff.m)
        backoff.b = rng.next_uniform(0, (backoff.cw_min << backoff.k) - 1)
    # Deterministic mode tolerates one collision before giving up the slot
    elif state.consec_failures + 1 >= STICKINESS_LIMIT:
        _revert(state, rng)
    elif tx_start_us is None or cycle_us is None:
        raise ValueError("deterministic failure needs tx_start_us, n and rate "
                         "to schedule the next attempt")
    else:
        state.consec_failures += 1
        state.phase = DEADLINE
        state.deadline = tx_start_us + cycle_us
    return state


def on_failure(state: StationState, rng: RandomSource, tx_start_us: int | None = None,
               n: int | None = None, rate: int | None = None,
               table: ScheduleTable = DEFAULT_TABLE) -> StationState:
    """ACK timeout elapsed for the station's last transmission."""
    cycle_us = None if n is None or rate is None else cycle_timer(n, rate, table)
    return _fail(_copied(state), tx_start_us, cycle_us, rng)


def _count_down(state: StationState, slots: int) -> StationState:
    # `slots` idle slots observed in legacy mode, floored at zero
    if state.phase != BACKOFF:
        raise ValueError("slot countdown only runs in legacy mode")
    state.backoff.b = max(state.backoff.b - slots, 0)
    return state


def legacy_tick(state: StationState, slot_idle: bool) -> StationState:
    """One observed slot: decrement on idle, freeze on busy, floor at zero."""
    return _count_down(_copied(state), 1 if slot_idle else 0)


def _probe(state: StationState, channel_idle: bool, now_us: int,
           rng: RandomSource) -> ProbeAction:
    if state.phase == BACKOFF or state.deadline is None:
        raise ValueError("probe is only defined in deterministic mode")
    if now_us < state.deadline:
        raise ValueError("probe fired before the scheduled deadline")
    if channel_idle:
        return ProbeAction.TRANSMIT_NOW
    if state.busy_probes >= BUSY_LIMIT - 1:
        _revert(state, rng)
        return ProbeAction.REVERT_LEGACY
    if now_us == state.deadline:
        state.phase = HOLD
        return ProbeAction.HOLD_PROBE
    # k is 0 throughout Deterministic mode, so the draw fits the window
    state.busy_probes += 1
    state.phase = REDUCED
    state.backoff.b = rng.next_uniform(0, REDUCED_WINDOW - 1)
    return ProbeAction.REDUCED_BACKOFF


def cfmac_probe(state: StationState, channel_idle: bool, now_us: int,
                rng: RandomSource) -> ProbeDecision:
    """Decide what a Deterministic-mode station does at a probe checkpoint.

    Checkpoints are the deadline instant, the end of the two-slot hold window,
    and the reduced-backoff fire instant; `channel_idle` is the state the
    station observed there. One failed hold window arms the reduced backoff;
    any further busy finding before a success reverts the station to legacy
    contention.
    """
    state = _copied(state)
    action = _probe(state, channel_idle, now_us, rng)
    slots = state.backoff.b if action is ProbeAction.REDUCED_BACKOFF else None
    return ProbeDecision(action, slots, state)
