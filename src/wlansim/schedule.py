"""Per-rate transmission schedule: how long one full rotation of N stations takes.

Each station owns a per-rate share of the cycle (one data frame, its ACK and
interframe spaces) padded by a guard that absorbs timing slop; the deterministic
cycle timer `SimConfig.cycle_us` is N times that share. Shares were calibrated
on hardware and kept as a table rather than derived from airtimes, so the guard
can be tuned per rate; custom tables may be supplied through the config.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping


@dataclass(frozen=True)
class ScheduleRow:
    share_us: float    # per-station slice of the cycle [us]
    epsilon_us: float  # guard padding inside the slice [us]

    def __post_init__(self) -> None:
        # a bool is an int, but not a duration; NaN, an infinity, a fraction
        # and a float too large to add to an int have no whole microsecond
        try:
            whole = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                        for v in (self.share_us, self.epsilon_us)) \
                and self.total_us == self.share_us + self.epsilon_us
        except (ValueError, OverflowError):
            whole = False
        if not whole:
            raise ValueError(f"per-station share + guard must be two real "
                             f"numbers summing to whole microseconds: {self!r}")

    @property
    def total_us(self) -> int:
        return int(self.share_us + self.epsilon_us)


@dataclass(frozen=True)
class ScheduleTable:
    rows: Mapping[int, ScheduleRow]

    def __post_init__(self) -> None:
        # a read-only copy: a config checked against the table runs on the
        # rows it was checked against
        object.__setattr__(self, "rows", MappingProxyType(dict(self.rows)))

    def __reduce__(self):  # a mappingproxy does not pickle; its dict does
        return ScheduleTable, (dict(self.rows),)


DEFAULT_TABLE = ScheduleTable(rows={
    6: ScheduleRow(share_us=2233.5, epsilon_us=91.5),
    11: ScheduleRow(share_us=1567.5, epsilon_us=132.5),
    12: ScheduleRow(share_us=1197.5, epsilon_us=102.5),
    24: ScheduleRow(share_us=681.5, epsilon_us=106.5),
    48: ScheduleRow(share_us=421.5, epsilon_us=103.5),
})
