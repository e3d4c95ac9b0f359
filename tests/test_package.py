import ast
from pathlib import Path

import wlansim


def test_public_names():
    # the library surface; engine internals and state-machine parts are
    # imported from their modules
    assert sorted(wlansim.__all__) == [
        "ConfigError", "DEFAULT_TABLE", "DcfModelParams", "FixedPointError",
        "MetricsReport", "Mode", "Outcome", "ProtocolKind", "ScheduleRow",
        "ScheduleTable", "SimConfig", "TraceLog", "TransmissionRecord",
        "UnsupportedRateError", "compute_report", "convergence_time",
        "interarrival_stats", "jfi", "loss_fraction", "min_max_ratio",
        "normalized_interarrival", "per_station_loss", "read_trace_csv",
        "run_experiment", "solve_fixed_point", "steady_state_start",
        "throughput_per_station"]
    for name in wlansim.__all__:
        assert getattr(wlansim, name) is not None, name


def test_no_assert_statements():
    # invariants are explicit checks, which `python -O` keeps
    sources = sorted(Path(wlansim.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
