"""Transmission trace: what happened on the channel, one row per attempt.

The trace is held as four parallel columns of int64 `start` (microseconds),
int32 `station`, and int8 `outcome` and `mode` codes, which index OUTCOMES
and MODES: the engine appends to one `array.array` per column, the trace
wraps their buffers as numpy arrays without a copy, and the metrics and the
CSV writer read them. Row k of every column describes one attempt, whose
frame ends at `start + config.data_us`; rows are in (start, station) order,
and no start is negative. `TraceLog.read_csv` reads a file exactly when
`TraceLog.write_csv` of what it read gives the file's bytes back.

`TraceLog.write_csv` formats the rows in numpy, with no Python object per
row. A chunk of rows is laid out column-major, as (quads, rows) '<u4'
"quads" of 4 text bytes each, NUL for "nothing here". An integer column
takes a quad row per group of four digits its largest value needs, most
significant first, looked up in one table of 0000-9999: zero-padded below
the number's leading group, bare at it (leading zeros as NUL, but a lone 0
in the last group is "0") and all NUL above it. Commas and the outcome and
mode label (",success,legacy\\r\\n" and the like) fill rows of their own. No
CSV byte is NUL, so the transposed array's bytes without NULs are the text.
"""
from __future__ import annotations

import bisect
import functools
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

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
# label o * len(MODES) + m is ",<outcome o>,<mode m>\r\n", padded in quads
_LABELS = [f",{o.value},{m.value}\r\n".encode() for o in OUTCOMES
           for m in MODES]
_WIDTH = -(-max(map(len, _LABELS)) // 4)  # quads per label
_LABEL_QUADS = np.frombuffer(b"".join(x.ljust(4 * _WIDTH, b"\0") for x in
                                      _LABELS), "<u4").reshape(-1, _WIDTH).T
_ROWS_PER_WRITE = 1 << 11  # bounds the text held in memory while writing
# each held column's dtype, in the order of TRACE_COLUMNS
_DTYPES = dict(station=np.int32, start=np.int64, outcome=np.int8, mode=np.int8)
_INT64_MAX = int(np.iinfo(np.int64).max)
_HEADER = ",".join(TRACE_COLUMNS).encode() + b"\r\n"


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
    outcome: np.ndarray = ()
    mode: np.ndarray = ()

    def __post_init__(self) -> None:
        raw = {name: np.asarray(getattr(self, name)) for name in _DTYPES}
        shapes = [c.shape for c in raw.values()]
        if any(shape != shapes[0] or len(shape) != 1 for shape in shapes):
            raise ValueError(f"trace columns must be 1-D and equally long, "
                             f"got shapes {shapes}")
        # a non-empty column must hold integers (the () default is float64),
        # the codes must be in range, and no cast may change a value
        counts = {"station": self.config.n_stations, "outcome": len(OUTCOMES),
                  "mode": len(MODES)}
        for name, dtype in _DTYPES.items():
            given = raw[name]
            if len(given) and given.dtype.kind not in "iu":
                raise ValueError(f"trace {name} must hold integers, got "
                                 f"dtype {given.dtype}")
            if len(given) and name in counts:
                lo, hi = given.min(), given.max()
                if lo < 0 or hi >= counts[name]:
                    raise ValueError(f"{name} {lo if lo < 0 else hi} outside "
                                     f"0..{counts[name] - 1}")
            column = given.astype(dtype, copy=False)
            if not np.can_cast(given.dtype, dtype) and (column != given).any():
                raise ValueError(f"trace {name} values must fit in "
                                 f"{np.dtype(dtype)}")
            setattr(self, name, column)
        # the metrics take their window as one slice of the start column
        if (self.start[1:] < self.start[:-1]).any():
            raise ValueError("trace rows must be in start order")
        if (self.start[:1] < 0).any():  # so no start is negative
            raise ValueError(f"trace start {self.start[0]} is negative")
        if (self.start[-1:] > _INT64_MAX - self.config.data_us).any():
            raise ValueError("the last frame's end must fit in int64")

    @classmethod
    def read_csv(cls, path: str | Path, config: SimConfig) -> TraceLog:
        """The trace of the run `config` describes in `path`, read leniently,
        then only if `write_csv`, one-to-one, gives the file's bytes back. A
        refusal names the file and its header or its first row at fault."""
        text = Path(path).read_bytes()
        if isinstance(read := cls._round_trip(text, config), TraceLog):
            return read
        # each line end closes a prefix that is a file of its own, refused
        # exactly when it holds the first line at fault
        ends = [m.end() for m in re.finditer(b"\r\n", text)] + [len(text)]
        line = bisect.bisect_left(ends, True, key=lambda end: not isinstance(
            cls._round_trip(text[:end], config), TraceLog))
        if not line:
            head = text.partition(b"\r\n")[0]
            raise ValueError(f"{path}: trace header {head[:64]!r} is not "
                             f"{_HEADER!r}")
        why = cls._round_trip(text[:ends[line]], config)
        raise ValueError(f"{path}: trace row {line - 1} {why}")

    @classmethod
    def _round_trip(cls, text: bytes, config: SimConfig) -> TraceLog | str:
        """The trace in `text`, read leniently, if `write_csv` of it gives
        `text` back, else why not, worded to follow "trace row k"."""
        body = text.partition(b"\r\n")[2]
        for code, label in enumerate(_LABELS):  # to ",outcome,mode,"
            body = body.replace(label, b",%d,%d," % divmod(code, len(MODES)))
        try:
            with warnings.catch_warnings():  # numpy < 2 warns and stops short
                warnings.simplefilter("ignore", DeprecationWarning)
                fields = np.fromstring(body, np.int64, sep=",")
            station, start, _, outcome, mode = fields.reshape(-1, 5).T
            trace = cls(config, station, start.copy(),  # contiguous
                        outcome, mode)
        except ValueError as exc:
            return f"is refused: {exc}"
        at = 0  # text[:at] is what write_csv writes
        for chunk in trace._csv_chunks():
            if text[at:at + len(chunk)] != chunk:
                return "differs from its rewrite"
            at += len(chunk)
        return trace if at == len(text) else "differs from its rewrite"

    @property
    def records(self) -> list[TransmissionRecord]:
        """The rows as TransmissionRecord objects, built on each access: a
        read-only per-row view, since changing the list leaves the columns
        as they are."""
        return [TransmissionRecord(i, s, e, OUTCOMES[o], MODES[m])
                for i, s, e, o, m in zip(
                    self.station.tolist(), self.start.tolist(),
                    (self.start + self.config.data_us).tolist(),
                    self.outcome.tolist(), self.mode.tolist())]

    def write_csv(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self._csv_chunks())

    def _csv_chunks(self) -> Iterator[bytes]:
        """The header, then the text of each _ROWS_PER_WRITE rows: csv.writer's
        bytes (no field needs quoting, rows end in \\r\\n) from text quads."""
        table, labels = _digit_quads(), _LABEL_QUADS
        data_us = self.config.data_us
        # rows are in start order, so the last start and end are the largest
        last = int(self.start[-1]) if len(self.start) else 0
        groups = [-(-len(str(top)) // 4) for top in (
            int(self.station.max(initial=0)), last, last + data_us)]
        text = np.empty((sum(groups) + 2 + len(labels),
                         min(len(self.start), _ROWS_PER_WRITE)), "<u4")
        text[[groups[0], groups[0] + 1 + groups[1]]] = ord(",")  # ",\0\0\0"
        codes = self.outcome * len(MODES) + self.mode  # a column of labels
        yield _HEADER
        for lo in range(0, len(self.start), _ROWS_PER_WRITE):
            rows = slice(lo, lo + _ROWS_PER_WRITE)
            start = self.start[rows]
            quads, q = text[:, :len(start)], 0
            chunk = (self.station[rows], start, start + data_us)
            for rest, g in zip(chunk, groups):
                bare = 10000  # a lone 0 is "0" in the last group only
                for row in range(q + g - 1, q, -1):  # below the lead
                    above, rest = rest, rest // 10000
                    index = above - rest * 10000  # faster than np.divmod
                    np.add(index, bare, out=index, where=rest == 0)
                    table.take(index, out=quads[row], mode="clip")
                    bare = 20000
                table.take(rest + bare, out=quads[q], mode="clip")
                q += g + 1
            labels.take(codes[rows], axis=1, out=quads[-len(labels):],
                        mode="clip")
            yield quads.T.tobytes().translate(None, b"\0")


@functools.cache
def _digit_quads() -> np.ndarray:
    """The text of 0..9999 as '<u4' quads: entry v is v zero-padded to four
    digits, entry 10000 + v is v with its leading zeros as NUL (0 is "0"),
    entry 20000 + v the same but 0 is all NUL. Built on the first write."""
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint32)
    # entry 1000a + 100b + 10c + d holds the digit bytes a, b, c, d in order
    padded = np.add.outer(np.add.outer(np.add.outer(
        digit, digit << 8), digit << 16), digit << 24).ravel()
    bare = padded.copy()
    for k, below in enumerate((1000, 100, 10)):  # byte k is a leading 0
        bare[:below] -= ord("0") << 8 * k
    quads = np.concatenate((padded, bare, bare)).astype("<u4")
    quads[20000] = 0
    quads.flags.writeable = False
    return quads
