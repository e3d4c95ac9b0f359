"""Transmission trace: what happened on the channel, one row per attempt.

The trace is held as five parallel numpy columns, from the engine that
fills them through the metrics to the CSV file: int64 `start` and `end`
(microseconds), int32 `station`, and int8 `outcome` and `mode` codes, which
index OUTCOMES and MODES. Row k of every column describes one attempt;
rows are in (start, station) order. `TraceLog.read_csv` reads back what
`TraceLog.write_csv` wrote.

`TraceLog.write_csv` formats the rows in numpy, with no Python object per
row. A chunk of rows is laid out as a (rows, quads) array of little-endian
uint32 "quads", each holding 4 text bytes, with NUL for "nothing here". Per
integer column a row has a lead quad (the comma before the column, if any,
and its "-" sign) and then its digits in groups of four, most significant
first, as many groups as the column's widest value needs. A digit group is
looked up in one table of 0000-9999: zero-padded below the number's leading
group, with its leading zeros as NUL in the leading group (0 keeps its
"0"), and four NULs above it. The row ends with its outcome and mode label
(",success,legacy\\r\\n" and the like), NUL-padded to whole quads. No byte of
the CSV text is NUL and the quads hold the text in order, so dropping every
NUL byte leaves exactly the CSV text.
"""
from __future__ import annotations

import csv
import functools
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .protocols import Mode

if TYPE_CHECKING:  # the engine imports this module
    from .engine import SimConfig

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
    """One run's complete channel history plus the SimConfig that shaped it."""

    config: SimConfig
    # the columns; any sequence is converted to an array of its dtype
    station: np.ndarray = ()
    start: np.ndarray = ()
    end: np.ndarray = ()
    outcome: np.ndarray = ()
    mode: np.ndarray = ()

    def __post_init__(self) -> None:
        # the metrics divide by the config's window, which validate checks
        self.config.validate()
        # the station, outcome and mode columns are range-checked before
        # their casts
        station, outcome, mode = map(np.asarray, (self.station, self.outcome,
                                                  self.mode))
        try:
            self.start = np.asarray(self.start, dtype=np.int64)
            self.end = np.asarray(self.end, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError(f"trace times must fit in int64: {exc}") from None
        shapes = [c.shape for c in (station, self.start, self.end, outcome,
                                    mode)]
        if any(shape != shapes[0] or len(shape) != 1 for shape in shapes):
            raise ValueError(f"trace columns must be 1-D and equally long, "
                             f"got shapes {shapes}")
        # the metrics take their window as one slice of the start column
        if (self.start[1:] < self.start[:-1]).any():
            raise ValueError("trace rows must be in start order")
        for name, column, count in (
                ("station", station, self.config.n_stations),
                ("outcome", outcome, len(OUTCOMES)),
                ("mode", mode, len(MODES))):
            if len(column):
                lo, hi = column.min(), column.max()
                if lo < 0 or hi >= count:
                    raise ValueError(f"{name} {lo if lo < 0 else hi} outside "
                                     f"0..{count - 1}")
        self.station = station.astype(np.int32, copy=False)
        self.outcome = outcome.astype(np.int8, copy=False)
        self.mode = mode.astype(np.int8, copy=False)

    @classmethod
    def read_csv(cls, path: str | Path, config: SimConfig) -> TraceLog:
        """The trace `write_csv` wrote to `path`, of the run `config`
        describes."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader, ()))
            if header != TRACE_COLUMNS:
                raise ValueError(f"trace header {header} is not "
                                 f"{TRACE_COLUMNS}")
            rows = [(int(i), int(s), int(e), OUTCOME_CODE[Outcome(o)],
                     MODE_CODE[Mode(m)]) for i, s, e, o, m in reader]
        return cls(config, **dict(zip(
            ("station", "start", "end", "outcome", "mode"),
            zip(*rows) if rows else ((),) * 5)))

    @property
    def records(self) -> list[TransmissionRecord]:
        """The rows as TransmissionRecord objects, built on each access: a
        read-only per-row view, since changing the list leaves the columns
        as they are."""
        return [TransmissionRecord(i, s, e, OUTCOMES[o], MODES[m])
                for i, s, e, o, m in zip(
                    self.station.tolist(), self.start.tolist(),
                    self.end.tolist(), self.outcome.tolist(),
                    self.mode.tolist())]

    def write_csv(self, path: str | Path) -> None:
        # the bytes csv.writer would produce (no field needs quoting, rows
        # end in \r\n), built as text quads (see the module docstring) and
        # written without their NULs
        labels = [f",{o.value},{m.value}\r\n".encode() for o in OUTCOMES
                  for m in MODES]
        width = -(-max(map(len, labels)) // 4)
        label_quads = np.frombuffer(b"".join(
            x.ljust(4 * width, b"\0") for x in labels), "<u4").reshape(-1, width)
        columns = ((self.station, b""), (self.start, b","), (self.end, b","))
        groups = [-(-len(str(max(-int(c.min()), int(c.max())))) // 4)
                  if len(c) else 1 for c, _ in columns]
        text = np.empty((min(len(self.start), _ROWS_PER_WRITE),
                         len(columns) + sum(groups) + width), "<u4")
        with open(path, "wb") as fh:
            fh.write(",".join(TRACE_COLUMNS).encode() + b"\r\n")
            for lo in range(0, len(self.start), _ROWS_PER_WRITE):
                rows = slice(lo, lo + _ROWS_PER_WRITE)
                quads = text[:len(self.start[rows])]
                q = 0
                for (column, sep), g in zip(columns, groups):
                    _put_int(quads[:, q:q + 1 + g], column[rows], sep)
                    q += 1 + g
                quads[:, q:] = label_quads.take(
                    self.outcome[rows] * len(MODES) + self.mode[rows], axis=0)
                flat = quads.view(np.uint8).ravel()
                fh.write(flat[flat != 0])


@functools.cache
def _digit_quads() -> np.ndarray:
    """The text of 0..9999 as '<u4' quads: entry v is v zero-padded to four
    digits, entry 10000 + v is v with its leading zeros as NUL (0 keeps its
    "0"), and entry 20000 is four NULs. Built on the first write, not at
    import."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    # entry 1000a + 100b + 10c + d holds the digit bytes a, b, c, d in order
    padded = np.add.outer(np.add.outer(np.add.outer(
        digit, digit << 8), digit << 16), digit << 24).ravel()
    bare = padded.copy()
    for k, below in enumerate((1000, 100, 10)):  # byte k is a leading 0
        bare[:below] -= ord("0") << 8 * k
    quads = np.concatenate((padded, bare, np.zeros(1, np.uint32))).astype("<u4")
    quads.flags.writeable = False
    return quads


def _quad(text: bytes) -> int:
    return int.from_bytes(text.ljust(4, b"\0"), "little")


def _put_int(out: np.ndarray, x: np.ndarray, sep: bytes) -> None:
    """Write integers x into the (len(x), 1 + groups) quads `out`: `sep`
    and the sign, then the digit groups of |x|, most significant first."""
    x = x.astype(np.int64, copy=False)
    out[:, 0] = np.where(x < 0, _quad(sep + b"-"), _quad(sep))
    rest = np.abs(x).view(np.uint64)  # exact for INT64_MIN too
    for col in range(out.shape[1] - 1, 0, -1):
        above, rest = rest, rest // 10000
        digits = above - rest * 10000  # faster than np.divmod
        # padded below the leading group, bare at it, NULs above it
        kind = (rest == 0) * 10000
        if col < out.shape[1] - 1:
            kind += (above == 0) * 10000
        out[:, col] = _digit_quads().take(digits.astype(np.intp) + kind)

