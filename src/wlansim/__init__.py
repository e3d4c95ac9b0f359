"""Deterministic event-driven simulator of WLAN channel contention.

Three access methods over one saturated channel: classic CSMA/CA, CSMA/ECA
(deterministic post-success backoff), and a collision-free MAC that replaces
contention with an absolute microsecond cycle timer after its first success.
"""
from .bianchi import DcfModelParams, FixedPointError, solve_fixed_point
from .engine import ConfigError, SimConfig, run_experiment
from .metrics import (MetricsReport, compute_report, convergence_time,
                      interarrival_stats, jfi, loss_fraction, min_max_ratio,
                      normalized_interarrival, per_station_loss,
                      steady_state_start, throughput_per_station)
from .phy import UnsupportedRateError
from .protocols import Mode, ProtocolKind
from .schedule import DEFAULT_TABLE, ScheduleRow, ScheduleTable
from .trace import Outcome, TraceLog, TransmissionRecord, read_trace_csv

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DEFAULT_TABLE", "DcfModelParams", "FixedPointError",
    "MetricsReport", "Mode", "Outcome", "ProtocolKind", "ScheduleRow",
    "ScheduleTable", "SimConfig", "TraceLog", "TransmissionRecord",
    "UnsupportedRateError", "compute_report", "convergence_time",
    "interarrival_stats", "jfi", "loss_fraction", "min_max_ratio",
    "normalized_interarrival", "per_station_loss", "read_trace_csv",
    "run_experiment", "solve_fixed_point", "steady_state_start",
    "throughput_per_station",
]
