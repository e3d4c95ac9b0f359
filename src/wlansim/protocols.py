"""Station-side MAC state machines for the three contention protocols.

CSMA/CA is the binary exponential backoff baseline. CSMA/ECA replaces the
post-success draw with a fixed deterministic counter. CF-MAC additionally owns
a Deterministic mode: after a success the station leaves the slotted backoff
entirely and schedules its next attempt one full cycle after the transmission
it just made, probing the channel at that instant. Probes tolerate one busy
finding per spell (two-slot hold, then a reduced random backoff); a second
busy finding, like a second consecutive collision, drops the station back to
plain CSMA/CA.

Each transition rule is written once and is public: `succeed`, `fail`,
`count_down` and `probe_busy` update the mutable StationState the engine
keeps per station in place and return None, so the engine and the tests run
the same functions. After `probe_busy` the record's phase tells which case
happened. Times are integer microseconds throughout.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

CW_MIN = 16              # minimum contention window size (draws span [0, CW_MIN - 1])
MAX_BACKOFF_STAGE = 6    # Bianchi's m (`bianchi`); the rules never reach it
MAX_RETRIES = 6          # failures per packet before it is discarded: k < this
ECA_BACKOFF = CW_MIN // 2 - 1  # deterministic post-success counter: fires on the 8th slot
REDUCED_WINDOW = 7       # probe fallback draws from [0, REDUCED_WINDOW - 1]
STICKINESS_LIMIT = 2     # consecutive deterministic collisions tolerated before reverting
BUSY_LIMIT = 2           # busy probe findings tolerated before reverting

# scheduling phase: what a station waits for before its next attempt
BACKOFF = 0   # legacy mode, the slot countdown of b
DEADLINE = 1  # deterministic, its absolute deadline
HOLD = 2      # deterministic, a hold window for the channel to clear
REDUCED = 3   # deterministic, the reduced backoff of b slots


class ProtocolKind(Enum):
    CSMA_CA = "CsmaCa"
    CSMA_ECA = "CsmaEca"
    CF_MAC = "CfMac"


class Mode(Enum):
    LEGACY = "legacy"
    DETERMINISTIC = "deterministic"


# bound once: a module name is cheaper to read than an Enum class attribute
_CSMA_CA = ProtocolKind.CSMA_CA
_CSMA_ECA = ProtocolKind.CSMA_ECA


class RandomSource:
    """Seeded uniform source; one instance drives a whole run."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._bits = self._rng.getrandbits
        self.random = self._rng.random  # the stream's next float in [0, 1)
        self._held: float | None = None  # a handed-back `random` draw

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
        if (u := self._held) is None:
            return self.random() < probability
        self._held = None
        return u < probability

    def hand_back(self, u: float) -> None:
        """Return u, the last `random` draw, unused: `chance` takes it next."""
        if self._held is not None:
            raise RuntimeError("a handed-back draw is already held")
        self._held = u


@dataclass(slots=True)
class StationState:
    kind: ProtocolKind
    k: int = 0            # backoff stage, which is also the retry count
    b: int = 0            # remaining backoff slots
    consec_failures: int = 0
    busy_probes: int = 0
    deadline: int | None = None  # absolute [us], set only in Deterministic mode
    phase: int = BACKOFF


def initial_station(kind: ProtocolKind, rng: RandomSource) -> StationState:
    """A freshly powered station: legacy mode, stage 0, random counter."""
    return StationState(kind=kind, b=rng.next_uniform(0, CW_MIN - 1))


def _revert(state: StationState, rng: RandomSource) -> None:
    # back to plain CSMA/CA: stage 0, fresh draw, timers cleared
    state.phase = BACKOFF
    state.k = state.consec_failures = state.busy_probes = 0
    state.deadline = None
    state.b = rng.next_uniform(0, CW_MIN - 1)


def succeed(state: StationState, tx_start_us: int, cycle_us: int,
            rng: RandomSource) -> None:
    """ACK received for the transmission that started at tx_start_us."""
    state.k = 0
    if state.kind is _CSMA_CA:
        state.b = rng.next_uniform(0, CW_MIN - 1)
    elif state.kind is _CSMA_ECA:
        state.b = ECA_BACKOFF
    else:
        # CF-MAC: leave the slotted contention, next attempt one cycle on
        state.b = 0
        state.phase = DEADLINE
        state.consec_failures = state.busy_probes = 0
        state.deadline = tx_start_us + cycle_us


def fail(state: StationState, tx_start_us: int, cycle_us: int,
         rng: RandomSource) -> None:
    """ACK timeout elapsed for the transmission that started at tx_start_us.

    Legacy mode doubles the window with each retry and drops the packet on
    its MAX_RETRIES-th failure, starting the next one at stage 0;
    Deterministic mode keeps its slot one cycle on after a first collision
    and reverts to legacy contention on a second.
    """
    if state.phase == BACKOFF:
        state.k = state.k + 1 if state.k + 1 < MAX_RETRIES else 0
        state.b = rng.next_uniform(0, (CW_MIN << state.k) - 1)
    # Deterministic mode tolerates one collision before giving up the slot
    elif state.consec_failures + 1 >= STICKINESS_LIMIT:
        _revert(state, rng)
    else:
        state.consec_failures += 1
        state.phase = DEADLINE
        state.deadline = tx_start_us + cycle_us


def count_down(state: StationState, slots: int) -> None:
    """`slots` idle slots observed in legacy mode, floored at zero."""
    if state.phase != BACKOFF:
        raise ValueError("slot countdown only runs in legacy mode")
    state.b = max(state.b - slots, 0)


def probe_busy(state: StationState, now_us: int, rng: RandomSource) -> None:
    """A Deterministic-mode station finds the channel busy at a probe.

    Checkpoints are the deadline instant, the end of the two-slot hold window,
    and the reduced-backoff fire instant. A busy deadline starts the hold
    (phase HOLD); a busy finding after it arms the reduced backoff of
    `b` slots (phase REDUCED); any further busy finding before a
    success reverts the station to legacy contention (phase BACKOFF).
    """
    if state.phase == BACKOFF or state.deadline is None:
        raise ValueError("probe is only defined in deterministic mode")
    if now_us < state.deadline:
        raise ValueError("probe fired before the scheduled deadline")
    if state.busy_probes >= BUSY_LIMIT - 1:
        _revert(state, rng)
    elif now_us == state.deadline:
        state.phase = HOLD
    else:
        # k is 0 throughout Deterministic mode, so the draw fits the window
        state.busy_probes += 1
        state.phase = REDUCED
        state.b = rng.next_uniform(0, REDUCED_WINDOW - 1)
