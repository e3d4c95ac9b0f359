"""Run metrics computed from a transmission trace.

Per-station throughput counts a success toward the window its transmission
started in. Inter-arrival times are start-to-start gaps between a station's
consecutive transmission attempts (collisions included: retries are part of
the access delay being measured). Loss is the fraction of attempts that went
unacknowledged. `compute_report` is the one pass over a trace that computes
them; each figure is a field of the MetricsReport it returns.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocols import Mode, ProtocolKind
from .trace import MODE_CODE, OUTCOME_CODE, Outcome, TraceLog

_SUCCESS = OUTCOME_CODE[Outcome.SUCCESS]
_DETERMINISTIC = MODE_CODE[Mode.DETERMINISTIC]


@dataclass(frozen=True)
class IatStats:
    mean: float  # [us]
    std: float   # [us]
    min: float   # [us]
    max: float   # [us]


@dataclass(frozen=True)
class MetricsReport:
    window: tuple[int, int]
    per_station_throughput: list[float]       # [Mb/s]
    aggregate_throughput: float               # [Mb/s]
    jfi: float | None
    min_max_ratio: float | None
    interarrival: dict[int, IatStats | None]
    per_station_loss: list[float | None]
    aggregate_loss: float | None
    convergence_us: int | None

    def as_dict(self) -> dict:
        return {
            "window_us": list(self.window),
            "per_station_throughput_mbps": self.per_station_throughput,
            "aggregate_throughput_mbps": self.aggregate_throughput,
            "jfi": self.jfi,
            "min_max_ratio": self.min_max_ratio,
            "interarrival_us": {
                str(i): None if s is None else
                {"mean": s.mean, "std": s.std, "min": s.min, "max": s.max}
                for i, s in sorted(self.interarrival.items())
            },
            "per_station_loss": self.per_station_loss,
            "aggregate_loss": self.aggregate_loss,
            "convergence_us": self.convergence_us,
        }


def jfi(values: list[float]) -> float:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in (0, 1]."""
    if not values:
        raise ValueError("fairness is undefined for an empty allocation")
    total = float(sum(values))
    square_sum = float(sum(v * v for v in values))
    if square_sum == 0.0:
        raise ValueError("fairness is undefined when every share is zero")
    return total * total / (len(values) * square_sum)


def min_max_ratio(values: list[float]) -> float:
    if not values or max(values) <= 0.0:
        raise ValueError("min/max ratio is undefined without a positive maximum")
    return min(values) / max(values)


def loss_fraction(failures: int, successes: int) -> float:
    attempts = failures + successes
    if attempts == 0:
        raise ValueError("loss is undefined with no attempts")
    return failures / attempts


def _gap_stats(n: int, count: np.ndarray, station: np.ndarray,
               start: np.ndarray) -> dict[int, IatStats | None]:
    valid = np.flatnonzero(count >= 2)
    out: dict[int, IatStats | None] = dict.fromkeys(range(n))
    if not len(valid):
        return out
    # a stable sort by station keeps each station's attempts in trace order;
    # on keys of 16 bits or fewer numpy's stable sort is a radix sort
    key = station.astype(np.int16) if n <= 0x7FFF else station
    order = np.argsort(key, kind="stable")
    del key
    gaps = start[order]
    del order
    # station i's rows are [lo_i, lo_i + count_i) and its gaps [lo_i, hi_i),
    # hi_i = lo_i + count_i - 1; the gap at hi_i crosses into the next
    # station and is never read
    gaps[:-1] = gaps[1:] - gaps[:-1]
    lo = (np.cumsum(count) - count)[valid]
    size = count[valid] - 1
    hi = lo + size
    # reduceat at [lo_0, hi_0, lo_1, hi_1, ...]: the even results are wanted
    bounds = np.stack((lo, hi), axis=1).ravel()
    total, low, high = (f.reduceat(gaps, bounds)[::2]
                        for f in (np.add, np.minimum, np.maximum))
    # an integer sum below 2**53 is an exact float, so this is ndarray.mean
    mean = total / size
    # ndarray.std sums pairwise, which reduceat does not: one sum a station
    dev = gaps.astype(np.float64)
    del gaps
    # each station's mean on each of its rows (0 on the other rows)
    dev -= np.repeat(np.bincount(valid, mean, n), count)
    dev *= dev
    std = np.sqrt([np.add.reduce(dev[a:b])
                   for a, b in zip(lo.tolist(), hi.tolist())] / size)
    out.update(zip(valid.tolist(), map(
        IatStats, mean.tolist(), std.tolist(), low.astype(float).tolist(),
        high.astype(float).tolist())))
    return out


def normalized_interarrival(stats: dict[int, IatStats | None],
                            reference_mean_us: float) -> dict[int, float | None]:
    """Per-station mean gaps as a multiple of a reference mean gap."""
    if reference_mean_us <= 0:
        raise ValueError("reference mean must be positive")
    return {i: None if s is None else s.mean / reference_mean_us
            for i, s in stats.items()}


def convergence_time(trace: TraceLog) -> int | None:
    """When the run stopped colliding, or None if it never settled.

    Returns 0 for a run with no collisions at all. A CSMA/CA run that did
    collide never settles by construction; a CF-MAC run only counts as settled
    once a deterministic schedule exists (some Deterministic-mode record) and
    at least one success follows the last collision.
    """
    success = trace.outcome == _SUCCESS
    if success.all():
        return 0
    if trace.config.protocol is ProtocolKind.CSMA_CA:
        return None
    if trace.config.protocol is ProtocolKind.CF_MAC:
        if not (trace.mode == _DETERMINISTIC).any():
            return None
    settled_at = int(trace.end[~success].max())
    if not (success & (trace.start >= settled_at)).any():
        return None
    return settled_at


def steady_state_start(trace: TraceLog) -> int | None:
    """Earliest time after which only Deterministic-mode successes remain.

    None when the trace never reaches that regime (no deterministic records,
    or disturbances run to the end of the trace).
    """
    deterministic = trace.mode == _DETERMINISTIC
    if not deterministic.any():
        return None
    success = trace.outcome == _SUCCESS
    disturbed = ~(success & deterministic)
    start = int(trace.end[disturbed].max()) if disturbed.any() else 0
    if not (success & (trace.start >= start)).any():
        return None
    return start


def compute_report(trace: TraceLog) -> MetricsReport:
    """Every metric of the attempts started in the run's measured window,
    [warmup_us, duration_us)."""
    config = trace.config
    lo, hi = config.warmup_us, config.duration_us
    # rows are in start order, so the window is a slice: views, not copies
    inside = slice(*np.searchsorted(trace.start, (lo, hi)))
    station = trace.station[inside]
    n = config.n_stations
    wins = np.bincount(station[trace.outcome[inside] == _SUCCESS],
                       minlength=n).tolist()
    count = np.bincount(station, minlength=n)
    attempts = count.tolist()
    # bits per microsecond is numerically Mb/s
    throughput = [c * config.payload_bytes * 8 / (hi - lo) for c in wins]
    try:
        fairness = jfi(throughput)
        ratio = min_max_ratio(throughput)
    except ValueError:
        fairness = None
        ratio = None
    s_total, a_total = sum(wins), sum(attempts)
    aggregate_loss = None if a_total == 0 else loss_fraction(a_total - s_total,
                                                             s_total)
    return MetricsReport(
        window=(lo, hi),
        per_station_throughput=throughput,
        aggregate_throughput=float(sum(throughput)),
        jfi=fairness,
        min_max_ratio=ratio,
        interarrival=_gap_stats(n, count, station, trace.start[inside]),
        per_station_loss=[None if a == 0 else loss_fraction(a - w, w)
                          for w, a in zip(wins, attempts)],
        aggregate_loss=aggregate_loss,
        convergence_us=convergence_time(trace),
    )
