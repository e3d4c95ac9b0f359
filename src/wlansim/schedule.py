"""Per-rate transmission schedule: how long one full rotation of N stations takes.

Each station owns a per-rate share of the cycle (one data frame, its ACK and
interframe spaces) padded by a guard that absorbs timing slop; the deterministic
cycle timer is N times that share. Shares were calibrated on hardware and are
kept as a table rather than derived from airtimes, so the guard can be tuned
per rate; custom tables may be supplied through the experiment config.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ScheduleRow:
    share_us: float    # per-station slice of the cycle [us]
    epsilon_us: float  # guard padding inside the slice [us]

    @property
    def total_us(self) -> int:
        total = self.share_us + self.epsilon_us
        if total != int(total):
            raise ValueError("per-station share + guard must be whole microseconds")
        return int(total)


@dataclass(frozen=True)
class ScheduleTable:
    rows: dict[int, ScheduleRow]

    def row(self, rate: int) -> ScheduleRow:
        try:
            return self.rows[rate]
        except KeyError:
            raise ValueError(f"no schedule row for rate {rate} Mb/s") from None


DEFAULT_TABLE = ScheduleTable(rows={
    6: ScheduleRow(share_us=2233.5, epsilon_us=91.5),
    11: ScheduleRow(share_us=1567.5, epsilon_us=132.5),
    12: ScheduleRow(share_us=1197.5, epsilon_us=102.5),
    24: ScheduleRow(share_us=681.5, epsilon_us=106.5),
    48: ScheduleRow(share_us=421.5, epsilon_us=103.5),
})


def cycle_timer(n: int, rate: int, table: ScheduleTable = DEFAULT_TABLE) -> int:
    """Deterministic inter-transmission period for n contenders, in microseconds."""
    if n < 1:
        raise ValueError("cycle timer needs at least one contender")
    return n * table.row(rate).total_us
