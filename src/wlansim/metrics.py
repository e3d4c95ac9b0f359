"""Run metrics computed from a transmission trace.

Per-station throughput counts a success toward the window its transmission
started in. Inter-arrival times are start-to-start gaps between a station's
consecutive transmission attempts (collisions included: retries are part of
the access delay being measured). Loss is the fraction of attempts that went
unacknowledged.
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


def _default_window(trace: TraceLog, window: tuple[int, int] | None) -> tuple[int, int]:
    if window is None:
        return trace.warmup_us, trace.duration_us
    lo, hi = window
    if hi <= lo:
        raise ValueError("window must have positive length")
    return lo, hi


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


def _in_window(trace: TraceLog, lo: int, hi: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Station, start and outcome columns of the attempts started in [lo, hi)."""
    inside = (trace.start >= lo) & (trace.start < hi)
    return trace.station[inside], trace.start[inside], trace.outcome[inside]


def _tallies(n: int, station: np.ndarray,
             outcome: np.ndarray) -> tuple[list[int], list[int]]:
    """Successes and attempts per station."""
    wins = np.bincount(station[outcome == _SUCCESS], minlength=n)
    return wins.tolist(), np.bincount(station, minlength=n).tolist()


def _throughput(wins: list[int], payload: int, lo: int, hi: int) -> list[float]:
    # bits per microsecond is numerically Mb/s
    return [c * payload * 8 / (hi - lo) for c in wins]


def _losses(wins: list[int], attempts: list[int]) -> list[float | None]:
    return [None if a == 0 else loss_fraction(a - w, w)
            for w, a in zip(wins, attempts)]


def _gap_stats(n: int, station: np.ndarray,
               start: np.ndarray) -> dict[int, IatStats | None]:
    # a stable sort by station keeps each station's attempts in trace order
    order = np.argsort(station, kind="stable")
    bounds = np.cumsum(np.bincount(station, minlength=n))[:-1]
    out: dict[int, IatStats | None] = {}
    for i, starts in enumerate(np.split(start[order], bounds)):
        if len(starts) < 2:
            out[i] = None
            continue
        gaps = np.diff(starts)
        out[i] = IatStats(mean=float(gaps.mean()), std=float(gaps.std()),
                          min=float(gaps.min()), max=float(gaps.max()))
    return out


def throughput_per_station(trace: TraceLog,
                           window: tuple[int, int] | None = None) -> list[float]:
    """Delivered payload rate per station over the window, in Mb/s."""
    lo, hi = _default_window(trace, window)
    station, _, outcome = _in_window(trace, lo, hi)
    return _throughput(_tallies(trace.n_stations, station, outcome)[0],
                       trace.payload_bytes, lo, hi)


def interarrival_stats(trace: TraceLog,
                       window: tuple[int, int] | None = None) -> dict[int, IatStats | None]:
    """Start-to-start gap statistics per station; None below two attempts."""
    lo, hi = _default_window(trace, window)
    station, start, _ = _in_window(trace, lo, hi)
    return _gap_stats(trace.n_stations, station, start)


def normalized_interarrival(stats: dict[int, IatStats | None],
                            reference_mean_us: float) -> dict[int, float | None]:
    """Per-station mean gaps as a multiple of a reference mean gap."""
    if reference_mean_us <= 0:
        raise ValueError("reference mean must be positive")
    return {i: None if s is None else s.mean / reference_mean_us
            for i, s in stats.items()}


def per_station_loss(trace: TraceLog,
                     window: tuple[int, int] | None = None) -> list[float | None]:
    lo, hi = _default_window(trace, window)
    station, _, outcome = _in_window(trace, lo, hi)
    return _losses(*_tallies(trace.n_stations, station, outcome))


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
    if trace.protocol is ProtocolKind.CSMA_CA:
        return None
    if trace.protocol is ProtocolKind.CF_MAC:
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


def compute_report(trace: TraceLog, window: tuple[int, int] | None = None) -> MetricsReport:
    lo, hi = _default_window(trace, window)
    station, start, outcome = _in_window(trace, lo, hi)
    wins, attempts = _tallies(trace.n_stations, station, outcome)
    throughput = _throughput(wins, trace.payload_bytes, lo, hi)
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
        interarrival=_gap_stats(trace.n_stations, station, start),
        per_station_loss=_losses(wins, attempts),
        aggregate_loss=aggregate_loss,
        convergence_us=convergence_time(trace),
    )
