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
heaps drop superseded entries lazily, so one event costs O(log n).

The loop repeatedly takes the earliest such instant, lets every station due
at it start transmitting (ties across the grid, the deadlines and the
off-grid stations are all due), and resolves the busy period that follows:
data frames that overlap in time form one collision, a lone frame is a
success and its ACK arrives SIFS after it ends. Frames that start together
need no classifier: one succeeds, more collide. Only after a station joins
mid-air on a false-idle CCA sample (below) does one pass in start order
(`_resolve`) classify them: all last the same airtime, so a frame overlaps
the group before it exactly when it starts less than one frame after the
previous one. Outcomes are applied at the channel-release instant in
station order, and each attempt's row of four int64 (station, start,
outcome, mode) goes to one array('q') buffer with its outcome; after a
joiner, whose start order is not station order, the rows go first and the
outcomes are sorted. Every frame ends one airtime after its start, so the
end column is filled once, after the run. The ACK timeout is folded into
the release rather than modeled as a separate observable, which keeps
every legacy station on one shared post-busy slot grid.

Channel occupancy is bookkept conservatively:

  success    [tx_start, data_end + SIFS + ACK)  the ACK exchange holds the
                                                medium end to end
  collision  [tx_start, data_end + DIFS)        wreckage plus an EIFS-style
                                                penalty

A deterministic deadline that falls inside a busy period is probed at the
deadline instant against this bookkept state: the station holds for up to
two slots hoping the channel clears, transmits at the release instant if it
does, and otherwise arms a reduced backoff that counts idle slots after the
release. One such episode is tolerated; the next busy finding (a new
transmission interrupting the countdown, a busy sample at its fire instant,
or a busy deadline probe) reverts the station to legacy contention.

Once every station of an error-free run waits for a deadline and the
deadlines are at least one frame exchange apart, the round robin is exact
and absorbing; the loop then appends the rest of the run in closed form
(`_periodic_tail`) and stops.

Optional CCA noise flips the observed channel state with probability
cca_error_prob at exactly two kinds of instants: deadline probes and
reduced-backoff fire instants. Legacy slot sensing is always faithful. A
false-idle sample during someone else's data frame produces a staggered
overlap, recorded as CcaError for the sampler and Collision for its
victims; a false-idle sample landing in a busy tail that no data frame
covers goes through clean and is recorded as a Success.

A broken engine invariant (an event in the past, a backoff that ran out
unnoticed on or off the grid, a deadline before the release that follows
it) raises RuntimeError; the checks are explicit, so `python -O` keeps them.
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
from .trace import MODE_CODE, OUTCOME_CODE, Outcome, TraceLog


class ConfigError(ValueError):
    """Raised for an invalid simulation configuration."""


_SUCCESS = OUTCOME_CODE[Outcome.SUCCESS]
_COLLISION = OUTCOME_CODE[Outcome.COLLISION]
_CCA_ERROR = OUTCOME_CODE[Outcome.CCA_ERROR]
_LEGACY = MODE_CODE[Mode.LEGACY]
_DETERMINISTIC = MODE_CODE[Mode.DETERMINISTIC]
_ROW_DTYPES = (np.int32, np.int64, np.int8, np.int8)


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

    def validate(self) -> None:
        if self.n_stations < 1:
            raise ConfigError("n_stations must be at least 1")
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
        floor = frame_exchange_us(self.rate, self.payload_bytes) + profile.difs
        if self.schedule.row(self.rate).total_us < floor:
            raise ConfigError(f"schedule total for rate {self.rate} is too "
                              f"short to cover one frame exchange ({floor} us)")


def frame_exchange_us(rate: int, payload_bytes: int) -> int:
    """Airtime of one data + SIFS + ACK exchange in microseconds."""
    profile = phy_profile(rate)
    data = data_airtime(payload_bytes + MAC_OVERHEAD_BYTES, rate)
    return data + profile.sifs + ack_airtime(profile)


def cca_sample(truly_idle: bool, rng: RandomSource, error_prob: float) -> bool:
    """Observed channel state: the truth, flipped with probability error_prob.

    With error_prob = 0 no randomness is consumed, so error-free runs keep
    the same draw sequence no matter how often the channel is sensed.
    """
    if error_prob <= 0.0:
        return truly_idle
    if rng.chance(error_prob):
        return not truly_idle
    return truly_idle


def _resolve(txs: list[tuple[int, int]], flip_joins: set[int], data_us: int,
             sifs_ack_us: int, difs_us: int) -> tuple[list[int], int]:
    """Outcome codes of one busy period's frames, and its release instant.

    `txs` holds the (start, station) pair of every frame in ascending order,
    and every frame lasts data_us. Frames that overlap in time form one
    group; as they are equally long, a frame joins the group of the frame
    before it exactly when it starts less than data_us after that frame. A
    lone frame is a Success; a frame in a larger group is a Collision, or a
    CcaError for a station in `flip_joins` (it started on a false-idle CCA
    sample). Codes index OUTCOMES and follow the order of `txs`.

    The channel reads idle again at the latest group end plus that group's
    tail: SIFS + ACK after a success, DIFS after a collision.
    """
    codes = [_SUCCESS] * len(txs)
    release = 0
    for k, (start, i) in enumerate(txs):
        end = start + data_us
        if k and start < txs[k - 1][0] + data_us:
            j = txs[k - 1][1]
            codes[k - 1] = _CCA_ERROR if j in flip_joins else _COLLISION
            codes[k] = _CCA_ERROR if i in flip_joins else _COLLISION
        if k + 1 == len(txs) or txs[k + 1][0] >= end:
            # the last frame of its group, whose end is this frame's end
            tail = sifs_ack_us if codes[k] == _SUCCESS else difs_us
            release = max(release, end + tail)
    return codes, release


def _columns(head: array | bytes, extra: int = 0) -> list[np.ndarray]:
    # the station, start, outcome and mode columns at their final length:
    # the rows of `head` (four int64 each, in that order), then `extra` rows
    # left to the caller
    block = np.frombuffer(head, np.int64).reshape(-1, 4)
    columns = [np.empty(len(block) + extra, dt) for dt in _ROW_DTYPES]
    for column, values in zip(columns, block.T):
        column[:len(block)] = values
    return columns


def _periodic_tail(deadlines: list[tuple[int, int]], cycle_us: int,
                   exchange_us: int, duration_us: int,
                   head: array | bytes = b"") -> list[np.ndarray] | None:
    """The rest of a converged CF-MAC run in closed form, or None.

    Called with the (deadline, station) pair of every station once all n
    wait for a deadline, none holds, backs off or counts off the grid, and
    the CCA error probability is 0. If the sorted deadlines, taken
    cyclically (the last one wraps to the first + cycle), are each at least
    one frame exchange apart, the state is absorbing: the earliest station
    finds the channel idle, transmits alone (its exchange ends by the next
    deadline, so no probe lands inside it), succeeds without a random draw
    and schedules itself one cycle after this start. The new deadlines have
    the same gaps rotated by one, so the condition holds again. Station i
    therefore transmits alone at d_i + k * cycle for every start before the
    end of the run, and nothing else happens. Returns `_columns(head)` with
    those Deterministic-mode successes after the loop's rows, in start order.
    """
    order = sorted(deadlines)
    first = np.array([d for d, _ in order], dtype=np.int64)
    if (np.diff(first, append=first[0] + cycle_us) < exchange_us).any():
        return None
    # the deadlines lie within one cycle of the first, so every station
    # starts in `cycles` full cycles and the first `part` once more
    n = len(order)
    cycles = len(range(order[-1][0], duration_us, cycle_us))
    part = int(np.searchsorted(first, duration_us - cycles * cycle_us))
    full = cycles * n
    columns = _columns(head, full + part)
    station, start, outcome, mode = (c[len(c) - full - part:]
                                     for c in columns)
    stations = np.array([i for _, i in order], dtype=np.int32)
    np.add(first, cycle_us * np.arange(cycles, dtype=np.int64)[:, None],
           out=start[:full].reshape(cycles, n))
    np.add(first[:part], cycles * cycle_us, out=start[full:])
    station[:full].reshape(cycles, n)[:] = stations
    station[full:] = stations[:part]
    outcome[:], mode[:] = _SUCCESS, _DETERMINISTIC
    return columns


def run_experiment(config: SimConfig) -> tuple[TraceLog, MetricsReport]:
    """Simulate one saturated run and compute its metrics."""
    config.validate()
    profile = phy_profile(config.rate)
    slot, difs = profile.slot, profile.difs
    data_us = data_airtime(config.payload_bytes + MAC_OVERHEAD_BYTES,
                           config.rate)
    sifs_ack_us = profile.sifs + ack_airtime(profile)
    hold_us = 2 * slot
    n = config.n_stations
    duration_us = config.duration_us
    p_err = config.cca_error_prob
    cycle_us = cycle_timer(n, config.rate, config.schedule)

    rng = RandomSource(config.seed)
    states = [initial_station(config.protocol, rng) for _ in range(n)]
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
    rows = array("q")  # station, start, outcome, mode per attempt
    put = rows.extend
    heappop, heappush = heapq.heappop, heapq.heappush
    # per-period scratch, cleared as a period starts: non-transmitters to
    # file after it, flipped stations that hold, stations that join mid-air
    moved, flip_holders, flip_joins = set(), [], set()
    tail = None
    converge = not p_err and config.protocol is ProtocolKind.CF_MAC
    clock = 0

    def schedule(at: int, phase: int, i: int) -> None:
        # make (at, phase, i) station i's one live entry on the timeline
        due[i] = entry = (at, phase, i)
        heappush(timed, entry)

    while True:
        # drop stale tops, then take the earliest fire instant
        while grid and gkey[grid[0][1]] != grid[0][0]:
            heappop(grid)
        while timed and due[timed[0][2]] is not timed[0]:
            heappop(timed)
        t_next = grid_at = (release + difs + (grid[0][0] - banked) * slot
                            if grid else duration_us)
        if timed and timed[0][0] < t_next:
            t_next = timed[0][0]
        if t_next >= duration_us:
            break
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
        flip_joins.clear()
        for i in winners:
            if p_err and states[i].phase in (DEADLINE, REDUCED) \
                    and not cca_sample(True, rng, p_err):
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
            codes, free_at = [_SUCCESS], t0 + data_us + sifs_ack_us
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
            if phase != HOLD and cca_sample(False, rng, p_err):
                # phantom idle: transmit into the ongoing traffic; a joiner
                # can turn a success into a collision, whose tail is shorter
                txs.append((tme, i))
                flip_joins.add(i)
                codes, grown = _resolve(txs, flip_joins, data_us,
                                        sifs_ack_us, difs)
                free_at = max(free_at, grown)
                continue
            moved.add(i)
            probe_busy(states[i], tme, rng)
            if phase == HOLD:
                reduced.add(i)
            elif states[i].phase == HOLD:
                schedule(tme + hold_us, HOLD, i)

        # outcomes in station order, each row (with the mode its frame was
        # sent in) written with its outcome; after a joiner `txs` is not in
        # station order, so its rows go out first and the outcomes sorted
        outcomes = zip(txs, codes)
        if flip_joins:
            outcomes = list(outcomes)
            for (start, i), code in outcomes:
                put((i, start, code,
                     _LEGACY if states[i].phase == BACKOFF else _DETERMINISTIC))
            outcomes.sort(key=lambda o: o[0][1])
        for (start, i), code in outcomes:
            st = states[i]
            if not flip_joins:
                put((i, start, code,
                     _LEGACY if st.phase == BACKOFF else _DETERMINISTIC))
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

        # a converged round robin repeats exactly; emit the rest in one go
        if converge and all(st.phase == DEADLINE for st in states):
            tail = _periodic_tail([(st.deadline, i)
                                   for i, st in enumerate(states)],
                                  cycle_us, data_us + sifs_ack_us,
                                  duration_us, rows)
            if tail is not None:
                break

    station, start, outcome, mode = tail or _columns(rows)
    del rows, put
    trace = TraceLog(config, station=station, start=start, end=start + data_us,
                     outcome=outcome, mode=mode)
    return trace, compute_report(trace)
