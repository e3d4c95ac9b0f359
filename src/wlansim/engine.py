"""Event-driven channel contention engine.

Time is integer microseconds. The channel alternates between idle spans and
busy periods. The engine keeps one mutable StationState record per station
and updates it in place with the transition rules of `protocols`; during an
idle span the record's phase gives the station's next attempt instant:

  legacy            release + DIFS + b slots (b counted from the idle onset
                    the station observed)
  deterministic     its absolute deadline, unaligned to any slot grid
  hold carry-over   the exact channel-release instant
  reduced backoff   release + DIFS + b slots (b is the reduced draw)

Idle slots are counted lazily on a virtual clock. Every backoff station
(legacy or reduced) counts on one shared grid that starts DIFS after the
last channel release, so the loop keeps a single tally `banked` of the idle
slots counted down so far and files each such station in a heap under the
key banked + b; its fire instant is release + DIFS + (key - banked) slots.
When a busy period starts, the slots that elapsed before it are banked in
one step by advancing the tally, not station by station. Every absolute
instant sits in a second heap, the timeline, as an (instant, phase,
station) entry: a deadline, the end of a hold inside a busy period, the
release for a hold that outlasts one, and the fire instant of a station
counting off the grid from an anchor of its own: one that reverts to legacy
on a CCA flip while nobody transmits (anchor: that instant), or a phantom
hold that arms a reduced backoff (anchor: the end of the hold). The next
busy period banks such stations one by one and they rejoin the grid. Both
heaps drop superseded entries lazily, so one event costs O(log n). Only
CF-MAC leaves the shared grid, so CSMA/CA and CSMA/ECA runs, which never
probe, hold, flip or join, take `_contend_on_grid`: the grid alone.

The loop repeatedly takes the earliest such instant, lets every station due
at it start transmitting (ties across the grid, the deadlines and the
off-grid stations are all due), and resolves the busy period that follows:
data frames that overlap in time form one collision, a lone frame is a
success and its ACK arrives SIFS after it ends. Frames that start together
need no classifier: one succeeds, more collide. A station that joins
mid-air on a false-idle CCA sample (below) is classified against the last
frame alone (`_join`): every frame lasts `SimConfig.data_us` and none
starts before the last, so a joiner overlaps an earlier frame exactly when
it starts less than one frame after the last one. At the channel-release
instant each attempt's station, start, outcome and mode go, in start
order, to one `array.array` per trace column, of the dtype the trace wraps
without a copy; then the outcomes are applied in station order, sorted only
after a joiner, whose start order is not station order. A success holds the
channel for one data + SIFS + ACK exchange (`SimConfig.exchange_us`). The
ACK timeout is folded into the release rather than modeled as a separate
observable, which keeps every legacy station on one shared post-busy slot
grid.

Channel occupancy is bookkept conservatively:

  success    [tx_start, data_end + SIFS + ACK)  the ACK exchange holds the
                                                medium end to end
  collision  [tx_start, data_end + DIFS)        wreckage plus an EIFS-style
                                                penalty

A mid-air joiner never brings the release forward: one that wrecks a lone
success leaves the channel busy until the later of the success's data_end +
SIFS + ACK and its own data_end + DIFS, so such a collision can hold the
channel up to SIFS + ACK - DIFS longer than the rule above.

A deterministic deadline that falls inside a busy period is probed at the
deadline instant against this bookkept state: the station holds for up to
two slots hoping the channel clears, transmits at the release instant if it
does, and otherwise arms a reduced backoff that counts idle slots after the
release. One such episode is tolerated; the next busy finding (a new
transmission interrupting the countdown, a busy sample at its fire instant,
or a busy deadline probe) reverts the station to legacy contention.

Once no grid key is live, a busy period moved nobody and the CCA error is
at most STEP_MAX_P (README, Model notes), the loop takes the round robin
entry. It checks that every station waits for a deadline; then the
earliest, if its probe samples idle and no other deadline falls within one
exchange of it, succeeds alone with no random draw and goes one cycle on,
past all other deadlines. Without noise, gaps that wide all round the
cycle are absorbing, so the entry tries the rest of the run in closed form
(`_periodic_tail`). With noise, `_step_round_robin` appends such rows,
banking no slots as no grid key is live, until a draw flips or a deadline
is close, and hands that draw back for the loop's next `chance`.

Optional CCA noise flips the observed channel state with probability
cca_error_prob at exactly two kinds of instants: deadline probes and
reduced-backoff fire instants. Legacy slot sensing is always faithful. A
false-idle sample during someone else's data frame produces a staggered
overlap, recorded as CcaError for the sampler and Collision for its
victims (CcaError for a victim that joined mid-air itself); a false-idle
sample landing in a busy tail that no data frame covers goes through clean
and is recorded as a Success.

A broken engine invariant (an event in the past, a grid attempt before
DIFS, a backoff that ran out unnoticed on or off the grid, a deadline
before the release that follows it, a station off its deadline at the
round robin entry) raises RuntimeError; the checks are explicit, so
`python -O` keeps them.
"""
from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .metrics import MetricsReport, compute_report
from .phy import (MAC_OVERHEAD_BYTES, MAX_MSDU_BYTES, ack_airtime,
                  data_airtime, phy_profile)
from .protocols import (BACKOFF, DEADLINE, HOLD, REDUCED, Mode, ProtocolKind,
                        RandomSource, count_down, fail, initial_station,
                        probe_busy, succeed)
from .schedule import DEFAULT_TABLE, ScheduleTable, cycle_timer
from .trace import _DTYPES, MODE_CODE, OUTCOME_CODE, Outcome, TraceLog


class ConfigError(ValueError):
    """Raised for an invalid simulation configuration."""


_SUCCESS = OUTCOME_CODE[Outcome.SUCCESS]
_COLLISION = OUTCOME_CODE[Outcome.COLLISION]
_CCA_ERROR = OUTCOME_CODE[Outcome.CCA_ERROR]
_LEGACY = MODE_CODE[Mode.LEGACY]
_DETERMINISTIC = MODE_CODE[Mode.DETERMINISTIC]
_CF_MAC = ProtocolKind.CF_MAC
_MAX_STATIONS = int(np.iinfo(_DTYPES["station"]).max)  # the trace's column
STEP_MAX_P = 0.15  # above it, walks are too short to repay their entry


@dataclass(frozen=True)
class SimConfig:
    """One run: homogeneous stations, fixed rate, saturated uplink."""

    n_stations: int
    protocol: ProtocolKind
    rate: int  # [Mb/s]
    payload_bytes: int = 1470
    duration_s: float = 90.0
    seed: int = 1
    cca_error_prob: float = 0.0
    warmup_s: float = 5.0
    schedule: ScheduleTable = DEFAULT_TABLE

    # the engine runs in whole microseconds, rounded here and only here
    @property
    def duration_us(self) -> int:
        return round(self.duration_s * 1_000_000)

    @property
    def warmup_us(self) -> int:
        return round(self.warmup_s * 1_000_000)

    @property
    def data_us(self) -> int:
        """Airtime of every data frame of the run."""
        return data_airtime(self.payload_bytes + MAC_OVERHEAD_BYTES, self.rate)

    @property
    def exchange_us(self) -> int:
        """Airtime of one data + SIFS + ACK exchange: a success's hold."""
        profile = phy_profile(self.rate)
        return self.data_us + profile.sifs + ack_airtime(profile)

    def __post_init__(self) -> None:
        if not 1 <= self.n_stations <= _MAX_STATIONS:
            raise ConfigError(f"n_stations must lie in [1, {_MAX_STATIONS}]")
        # random.Random seeds with |seed|, so -s would repeat the run of s
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        # duration_us must be finite too
        if not (self.duration_s > 0
                and math.isfinite(self.duration_s * 1_000_000)):
            raise ConfigError("duration must be positive and finite")
        if not math.isfinite(self.warmup_s):
            raise ConfigError("warmup must be finite")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ConfigError("warmup must be non-negative and shorter than "
                              "the run")
        if not self.warmup_us < self.duration_us:
            raise ConfigError("the run must outlast the warmup by at least "
                              "1 us once both are rounded to whole us")
        if not 0.0 <= self.cca_error_prob <= 1.0:
            raise ConfigError("cca_error_prob must lie in [0, 1]")
        if not 0 < self.payload_bytes <= MAX_MSDU_BYTES:
            raise ConfigError(f"payload_bytes must lie in [1, "
                              f"{MAX_MSDU_BYTES}]")
        profile = phy_profile(self.rate)
        # a shorter cycle could re-schedule a deadline inside the busy
        # period that produced it, which the loop does not support
        floor = self.exchange_us + profile.difs
        total = self.schedule.row(self.rate).total_us
        if total < floor:
            raise ConfigError(f"schedule total for rate {self.rate} is too "
                              f"short to cover one frame exchange ({floor} us)")
        # a deadline is a start (below duration_us) plus one cycle, and
        # _periodic_tail adds one more cycle to the earliest in int64, so
        # duration_us - 1 + 2 * cycle must stay below 2**63
        if self.duration_us + 2 * self.n_stations * total > 2 ** 63:
            raise ConfigError(f"schedule total for rate {self.rate} overflows "
                              f"int64 deadlines at n = {self.n_stations} in a "
                              f"{self.duration_us} us run")


def _join(txs: list[tuple[int, int]], codes: list[int], t0: int, start: int,
          i: int, data_us: int, exchange_us: int, difs_us: int) -> int:
    """Append station i's mid-air frame to the busy period that began at t0.

    `txs` holds the (start, station) pair of every frame so far, `codes`
    their outcome codes (indices into OUTCOMES); `start` is at or after the
    last start. Every frame lasts data_us, so the joiner overlaps an earlier
    frame exactly when it overlaps the last one. Then the joiner is a
    CcaError, the last frame a Collision if it started at t0 and a CcaError
    if it joined mid-air too, and their group holds the channel to the
    joiner's end + DIFS. Otherwise the joiner is a lone Success, released at
    its start + the data + SIFS + ACK exchange. Returns that release.
    """
    last = txs[-1][0]
    txs.append((start, i))
    if start < last + data_us:
        codes[-1] = _COLLISION if last == t0 else _CCA_ERROR
        codes.append(_CCA_ERROR)
        return start + data_us + difs_us
    codes.append(_SUCCESS)
    return start + exchange_us


def _periodic_tail(due: list[tuple[int, int, int]], cycle_us: int,
                   exchange_us: int, duration_us: int,
                   head: list[array]) -> list | None:
    """The rest of a converged CF-MAC run in closed form, or None.

    Called at the round robin entry without CCA noise (module docstring)
    with every station's live (deadline, DEADLINE, station) entry. If the
    sorted deadlines, taken cyclically (the last wraps to the first +
    cycle), are each one exchange apart or more, station i succeeds alone
    at d_i + k * cycle for every start in the run. Returns the columns at
    their final length: the loop's rows `head`, then those successes.
    """
    deadlines, _, order = zip(*sorted(due))
    first = np.array(deadlines, dtype=np.int64)
    if (np.diff(first, append=first[0] + cycle_us) < exchange_us).any():
        return None
    # the deadlines lie within one cycle of the first, so every station
    # starts in `cycles` full cycles and the first `part` once more
    n = len(order)
    cycles = len(range(deadlines[-1], duration_us, cycle_us))
    part = int(np.searchsorted(first, duration_us - cycles * cycle_us))
    full = cycles * n
    columns = [np.empty(len(rows) + full + part, dt)
               for rows, dt in zip(head, _DTYPES.values())]
    for column, rows in zip(columns, head):
        column[:len(rows)] = rows
    station, start, outcome, mode = (c[len(h):] for c, h in zip(columns, head))
    np.add(first, cycle_us * np.arange(cycles, dtype=np.int64)[:, None],
           out=start[:full].reshape(cycles, n))
    np.add(first[:part], cycles * cycle_us, out=start[full:])
    station[:full].reshape(cycles, n)[:] = order
    station[full:] = order[:part]
    outcome[:], mode[:] = _SUCCESS, _DETERMINISTIC
    return columns


def _step_round_robin(release: int, timed: list, due: list, states: list,
                      rng: RandomSource, columns: list[array], p_err: float,
                      duration_us: int, exchange_us: int,
                      cycle_us: int) -> int:
    """Append the lone successes of an intact noisy round robin (module
    docstring) from a live timeline top; returns the new release."""
    put_station, put_start, put_outcome, put_mode = (c.append for c in columns)
    draw, heappop, heappush = rng.random, heapq.heappop, heapq.heappush
    while timed[0][0] < duration_us:  # each step leaves a live top
        if (u := draw()) < p_err:
            rng.hand_back(u)
            break
        start, _, i = entry = heappop(timed)
        while timed and due[timed[0][2]] is not timed[0]:
            heappop(timed)
        if timed and timed[0][0] < start + exchange_us:
            heappush(timed, entry)
            rng.hand_back(u)
            break
        put_station(i)
        put_start(start)
        put_outcome(_SUCCESS)
        put_mode(_DETERMINISTIC)
        release = start + exchange_us
        succeed(st := states[i], start, cycle_us, rng)
        if st.deadline < release:
            raise RuntimeError(f"station {i} scheduled its deadline "
                               f"{st.deadline} us before {release} us")
        due[i] = entry = (st.deadline, DEADLINE, i)
        heappush(timed, entry)
    return release


def _contend_on_grid(config: SimConfig, slot: int, difs: int, data_us: int,
                     exchange_us: int, cycle_us: int, states: list,
                     rng: RandomSource, columns: list[array]) -> list[array]:
    """`_contend` for runs that never leave the shared grid: the stations
    under the top key transmit (in station order) and are filed anew."""
    # a sorted list is a heap; sentinels keep both children of the top
    grid = sorted((s.b, i) for i, s in enumerate(states)) + [(math.inf, 0)] * 2
    put_station, put_start, put_outcome = (c.append for c in columns[:3])
    duration_us, release, banked = config.duration_us, 0, 0
    while True:
        key, i = grid[0]
        if key < banked:
            raise RuntimeError(f"station {i} fired before DIFS")
        t0 = release + difs + (key - banked) * slot
        if t0 >= duration_us:  # every row is legacy: fill the mode at once
            columns[3].frombytes(bytes([_LEGACY]) * len(columns[0]))
            return columns
        banked = key
        if grid[1][0] != key != grid[2][0]:  # no other entry shares the key
            put_station(i)
            put_start(t0)
            put_outcome(_SUCCESS)
            succeed(states[i], t0, cycle_us, rng)
            heapq.heapreplace(grid, (key + states[i].b, i))
            release = t0 + exchange_us
            continue
        winners = [heapq.heappop(grid)[1]]
        while grid[0][0] == key:
            winners.append(heapq.heappop(grid)[1])
        for i in winners:
            put_station(i)
            put_start(t0)
            put_outcome(_COLLISION)
            fail(states[i], t0, cycle_us, rng)
            heapq.heappush(grid, (key + states[i].b, i))
        release = t0 + data_us + difs


def run_experiment(config: SimConfig) -> tuple[TraceLog, MetricsReport]:
    """Simulate one saturated run and compute its metrics."""
    profile = phy_profile(config.rate)
    cycle_us = cycle_timer(config.n_stations, config.rate, config.schedule)
    rng = RandomSource(config.seed)
    states = [initial_station(config.protocol, rng)
              for _ in range(config.n_stations)]
    # only CF-MAC leaves the shared grid (module docstring)
    contend = _contend if config.protocol is _CF_MAC else _contend_on_grid
    # the loop appends to one array per trace column and returns the columns
    trace = TraceLog(config, *contend(
        config, profile.slot, profile.difs, config.data_us, config.exchange_us,
        cycle_us, states, rng,
        [array(np.dtype(dt).char) for dt in _DTYPES.values()]))
    return trace, compute_report(trace)


def _contend(config: SimConfig, slot: int, difs: int, data_us: int,
             exchange_us: int, cycle_us: int, states: list,
             rng: RandomSource, columns: list[array]) -> list:
    """The general loop: fills `columns`, returns them or the tail's."""
    hold_us = 2 * slot
    n = config.n_stations
    duration_us = config.duration_us
    p_err = config.cca_error_prob
    # virtual idle-slot clock: a station on the shared grid with key K fires
    # at release + DIFS + (K - banked) slots
    release = 0  # [us] instant the channel last went idle
    banked = 0   # idle slots counted down on the shared grid so far
    gkey: list[int | None] = [s.b for s in states]  # live grid key
    # (key, station); an entry whose key is not its station's gkey is stale
    # and is dropped when it reaches the top
    grid = [(k, i) for i, k in enumerate(gkey)]
    heapq.heapify(grid)
    # the timeline, (instant, phase, station): an entry is live only while
    # it is its station's `due` entry (by identity, so a superseded entry
    # at the same instant stays stale); stale ones are dropped at the top
    timed: list[tuple[int, int, int]] = []
    due: list[tuple[int, int, int] | None] = [None] * n
    loose: dict[int, int] = {}  # off-grid station -> the anchor it counts from
    reduced: set[int] = set()   # REDUCED stations still counting down
    put_station, put_start, put_outcome, put_mode = (c.append for c in columns)
    heappop, heappush = heapq.heappop, heapq.heappush
    # per-period scratch, cleared as a period starts: non-transmitters to
    # file after it, flipped stations that hold
    moved, flip_holders = set(), []
    clock = 0

    def schedule(at: int, phase: int, i: int) -> None:
        # make (at, phase, i) station i's one live entry on the timeline
        due[i] = entry = (at, phase, i)
        heappush(timed, entry)

    while True:
        # drop stale tops, then take the earliest fire instant
        while grid and gkey[grid[0][1]] != grid[0][0]:
            heappop(grid)
        if grid and grid[0][0] < banked:
            raise RuntimeError(f"station {grid[0][1]} fired before DIFS")
        while timed and due[timed[0][2]] is not timed[0]:
            heappop(timed)
        if not (grid or moved) and p_err <= STEP_MAX_P:  # round robin entry
            if [st.phase for st in states].count(DEADLINE) < n:
                raise RuntimeError("round robin entered off the deadline "
                                   "phase")
            if p_err:
                release = clock = _step_round_robin(
                    release, timed, due, states, rng, columns, p_err,
                    duration_us, exchange_us, cycle_us)
            elif (tail := _periodic_tail(due, cycle_us, exchange_us,
                                         duration_us, columns)) is not None:
                return tail
        t_next = grid_at = (release + difs + (grid[0][0] - banked) * slot
                            if grid else duration_us)
        if timed and timed[0][0] < t_next:
            t_next = timed[0][0]
        if t_next >= duration_us:
            return columns
        if t_next < clock:
            raise RuntimeError(f"event scheduled in the past: {t_next} us "
                               f"< {clock} us")
        clock = t_next

        winners: list[int] = []
        if grid and grid_at == t_next:
            key = grid[0][0]
            while grid and grid[0][0] == key:
                i = heappop(grid)[1]
                if gkey[i] == key:
                    gkey[i] = None
                    winners.append(i)
        while timed and timed[0][0] == t_next:
            entry = heappop(timed)
            i = entry[2]
            if due[i] is entry:
                due[i] = None
                if loose:
                    loose.pop(i, None)
                winners.append(i)
        if len(winners) > 1:
            winners.sort()
        if reduced:
            reduced.difference_update(winners)

        # stations due now fire unless a CCA flip makes them see a phantom
        # busy; flipped scheduled stations start a hold window, flipped
        # reduced-backoff stations take the busy finding as final and revert
        txs: list[tuple[int, int]] = []  # (start, station) of every frame
        moved.clear()
        flip_holders.clear()
        for i in winners:
            if p_err and states[i].phase in (DEADLINE, REDUCED) \
                    and rng.chance(p_err):
                moved.add(i)
                probe_busy(states[i], t_next, rng)
                if states[i].phase == HOLD:
                    flip_holders.append(i)
            else:
                txs.append((t_next, i))

        if not txs:
            # nothing actually transmitted, so the shared grid stands; the
            # reverted stations count from now, and the phantom holds fail
            # against a channel that never clears in their eyes and arm the
            # fallback counted from the end of the hold instead
            for i in flip_holders:
                probe_busy(states[i], t_next + hold_us, rng)
            reduced.update(flip_holders)
            for i in winners:
                anchor = t_next + hold_us if i in flip_holders else t_next
                st = states[i]
                loose[i] = anchor
                schedule(anchor + difs + st.b * slot, st.phase, i)
            continue

        # --- busy period ---
        t0 = t_next
        # bank the idle slots that elapsed before the channel went busy: one
        # step of the virtual clock for the shared grid, one by one off it
        elapsed = (t0 - release - difs) // slot
        if elapsed > 0:
            banked += elapsed
            while grid and gkey[grid[0][1]] != grid[0][0]:
                heappop(grid)
            if grid and grid[0][0] - banked < 1:
                raise RuntimeError(f"shared-grid backoff of station "
                                   f"{grid[0][1]} ran out unnoticed")
        if loose:
            for i, a in loose.items():
                elapsed = (t0 - a - difs) // slot
                if states[i].phase == BACKOFF and elapsed > 0:
                    if states[i].b - elapsed < 1:
                        raise RuntimeError(f"backoff of off-grid station {i} "
                                           f"ran out unnoticed")
                    count_down(states[i], elapsed)
                due[i] = None
            moved.update(loose)
            loose.clear()
        if reduced:
            # a new transmission interrupted the reduced countdowns: that is
            # the second busy finding, those stations abandon their claims
            for i in sorted(reduced):
                probe_busy(states[i], t0, rng)
            moved.update(reduced)
            reduced.clear()

        # every frame so far starts at t0: one succeeds, more collide
        if len(txs) == 1:
            codes, free_at = [_SUCCESS], t0 + exchange_us
        else:
            codes, free_at = [_COLLISION] * len(txs), t0 + data_us + difs

        # deadline probes and hold ends inside the busy span, in time order
        # and at one instant probes first; false-idle samples join mid-air
        # and may push the release further out. Joiners come after t0 in
        # (time, station) order, so `txs` stays ascending.
        for i in flip_holders:
            schedule(t0 + hold_us, HOLD, i)
        while timed and timed[0][0] < free_at:
            entry = heappop(timed)
            tme, phase, i = entry
            if due[i] is not entry:
                continue
            due[i] = None
            if phase != HOLD and p_err and rng.chance(p_err):
                # phantom idle: transmit into the ongoing traffic; a joiner
                # that wrecks a lone success keeps the success's release
                # where it is later than the wreck's
                free_at = max(free_at, _join(txs, codes, t0, tme, i, data_us,
                                             exchange_us, difs))
                continue
            moved.add(i)
            probe_busy(states[i], tme, rng)
            if phase == HOLD:
                reduced.add(i)
            elif states[i].phase == HOLD:
                schedule(tme + hold_us, HOLD, i)

        # every frame's row in start order, with the mode it was sent in,
        # then the outcomes in station order; only a joiner starts after t0
        # and breaks that order
        outcomes = list(zip(txs, codes))
        for (start, i), code in outcomes:
            put_station(i)
            put_start(start)
            put_outcome(code)
            put_mode(_LEGACY if states[i].phase == BACKOFF else _DETERMINISTIC)
        if txs[-1][0] != t0:
            outcomes.sort(key=lambda o: o[0][1])
        for (start, i), code in outcomes:
            st = states[i]
            if code == _SUCCESS:
                succeed(st, start, cycle_us, rng)
            else:
                fail(st, start, cycle_us, rng)
            if st.phase == DEADLINE:
                if st.deadline < free_at:
                    raise RuntimeError(f"station {i} scheduled its deadline "
                                       f"{st.deadline} us before the release "
                                       f"at {free_at} us")
                schedule(st.deadline, DEADLINE, i)
            else:
                gkey[i] = key = banked + st.b
                heappush(grid, (key, i))

        release = clock = free_at
        # file the non-transmitters that changed (only an outcome sets
        # DEADLINE); a hold that outlasted the period fires at the release
        for i in moved:
            st = states[i]
            if st.phase == HOLD:
                schedule(release, HOLD, i)
            elif gkey[i] != (key := banked + st.b):
                gkey[i] = key
                heappush(grid, (key, i))
