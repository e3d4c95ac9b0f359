"""Deterministic event-driven simulator of WLAN channel contention.

Three access methods over one saturated channel: classic CSMA/CA, CSMA/ECA
(deterministic post-success backoff), and a collision-free MAC that replaces
contention with an absolute microsecond cycle timer after its first success.
"""
from .bianchi import FixedPointError, solve_fixed_point
from .engine import ConfigError, SimConfig, run_experiment
from .metrics import (MetricsReport, compute_report, convergence_time, jfi,
                      loss_fraction, min_max_ratio, normalized_interarrival,
                      steady_state_start)
from .phy import UnsupportedRateError
from .protocols import Mode, ProtocolKind
from .schedule import DEFAULT_TABLE, ScheduleRow, ScheduleTable
from .trace import Outcome, TraceLog

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DEFAULT_TABLE", "FixedPointError", "MetricsReport",
    "Mode", "Outcome", "ProtocolKind", "ScheduleRow", "ScheduleTable",
    "SimConfig", "TraceLog", "UnsupportedRateError", "compute_report",
    "convergence_time", "jfi", "loss_fraction", "min_max_ratio",
    "normalized_interarrival", "run_experiment", "solve_fixed_point",
    "steady_state_start",
]
