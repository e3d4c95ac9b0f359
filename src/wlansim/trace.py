"""Transmission trace: what happened on the channel, one row per attempt.

The trace is held as five parallel numpy columns, from the engine that
fills them through the metrics to the CSV file: int64 `start` and `end`
(microseconds), int32 `station`, and int8 `outcome` and `mode` codes, which
index OUTCOMES and MODES. Row k of every column describes one attempt;
rows are in (start, station) order.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .protocols import Mode, ProtocolKind

TRACE_COLUMNS = ("station", "start_us", "end_us", "outcome", "mode")


class Outcome(Enum):
    SUCCESS = "success"
    COLLISION = "collision"
    CCA_ERROR = "cca_error"  # collision caused by a false-idle carrier sample


OUTCOMES = tuple(Outcome)  # outcome code k is OUTCOMES[k]
MODES = tuple(Mode)        # mode code k is MODES[k]
OUTCOME_CODE = {o: k for k, o in enumerate(OUTCOMES)}
MODE_CODE = {m: k for k, m in enumerate(MODES)}
_ROWS_PER_WRITE = 1 << 10  # bounds the text held in memory while writing


@dataclass(frozen=True)
class TransmissionRecord:
    """One row of a trace, as a Python object."""

    station: int
    start: int  # [us]
    end: int    # [us] end of the data frame itself
    outcome: Outcome
    mode: Mode  # station mode at transmission time


@dataclass(eq=False)
class TraceLog:
    """Complete channel history of one run plus the parameters that shaped it."""

    protocol: ProtocolKind
    n_stations: int
    rate: int
    payload_bytes: int
    duration_us: int
    warmup_us: int
    seed: int
    cycle_us: int  # deterministic rotation period for this (n, rate)
    # the columns; any sequence is converted to an array of its dtype
    station: np.ndarray = ()
    start: np.ndarray = ()
    end: np.ndarray = ()
    outcome: np.ndarray = ()
    mode: np.ndarray = ()
    successes: list[int] = field(default_factory=list)  # per-station tallies
    failures: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.station = np.asarray(self.station, dtype=np.int32)
        self.start = np.asarray(self.start, dtype=np.int64)
        self.end = np.asarray(self.end, dtype=np.int64)
        self.outcome = np.asarray(self.outcome, dtype=np.int8)
        self.mode = np.asarray(self.mode, dtype=np.int8)

    @classmethod
    def from_records(cls, records, *, n_stations: int, **params) -> TraceLog:
        """A trace of these records, in the order given; `params` are the
        remaining fields (protocol, rate and so on)."""
        records = list(records)
        for r in records:
            if not 0 <= r.station < n_stations:
                raise ValueError(f"station {r.station} outside "
                                 f"0..{n_stations - 1}")
        return cls(n_stations=n_stations, **params,
                   station=[r.station for r in records],
                   start=[r.start for r in records],
                   end=[r.end for r in records],
                   outcome=[OUTCOME_CODE[r.outcome] for r in records],
                   mode=[MODE_CODE[r.mode] for r in records])

    @property
    def records(self) -> list[TransmissionRecord]:
        """The rows as TransmissionRecord objects, built on each access."""
        return [TransmissionRecord(i, s, e, OUTCOMES[o], MODES[m])
                for i, s, e, o, m in zip(
                    self.station.tolist(), self.start.tolist(),
                    self.end.tolist(), self.outcome.tolist(),
                    self.mode.tolist())]

    def write_csv(self, path: str | Path) -> None:
        # the bytes csv.writer would produce: no field needs quoting, and
        # rows end in \r\n
        labels = np.array([f"{o.value},{m.value}" for o in OUTCOMES
                           for m in MODES], dtype=object)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\r\n")
            for lo in range(0, len(self.start), _ROWS_PER_WRITE):
                rows = slice(lo, lo + _ROWS_PER_WRITE)
                label = labels[self.outcome[rows] * len(MODES)
                               + self.mode[rows]]
                fh.write("".join([
                    f"{i},{s},{e},{x}\r\n" for i, s, e, x in zip(
                        self.station[rows].tolist(),
                        self.start[rows].tolist(),
                        self.end[rows].tolist(), label.tolist())]))


def read_trace_csv(path: str | Path) -> list[TransmissionRecord]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [TransmissionRecord(station=int(row["station"]), start=int(row["start_us"]),
                                   end=int(row["end_us"]), outcome=Outcome(row["outcome"]),
                                   mode=Mode(row["mode"]))
                for row in reader]
