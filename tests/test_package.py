import ast
import subprocess
import sys
from pathlib import Path

import wlansim


def test_public_names():
    # the library surface; engine internals, state-machine parts and the
    # per-row TransmissionRecord are imported from their modules
    assert sorted(wlansim.__all__) == [
        "ConfigError", "DEFAULT_TABLE", "FixedPointError", "MetricsReport",
        "Mode", "Outcome", "ProtocolKind", "ScheduleRow", "ScheduleTable",
        "SimConfig", "TraceLog", "UnsupportedRateError", "compute_report",
        "convergence_time", "jfi", "loss_fraction", "min_max_ratio",
        "normalized_interarrival", "run_experiment", "solve_fixed_point",
        "steady_state_start"]
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


def test_a_failing_property_test_fails_alone(tmp_path):
    # a failing @given test must not abort the session under the project's
    # warning filters: the tests after it still run and report
    (tmp_path / "test_inner.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x is None\n\n\n"
        "def test_passes():\n"
        "    pass\n")
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-q",
         "-p", "no:cacheprovider", "test_inner.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output
    assert run.returncode == 1, output
    assert "1 failed, 1 passed" in output.splitlines()[-1], output
