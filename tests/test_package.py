import ast
import os
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


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    # the Python block of the README's "Library use" section, so the
    # section cannot drift from the API
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(readme), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[1:] == ["True", repr(1470 * 8 / 85_000_000)]


def test_cli_import_leaves_the_process_pool_unloaded(tmp_path):
    # a sweep on forked workers loads no pool module; a fresh interpreter,
    # since this one may have imported them already
    plan = tmp_path / "plan.ini"
    plan.write_text("[experiment]\nseeds = 1 2\nduration = 0.2\n"
                    "warmup = 0.02\n[output]\n"
                    f"directory = {tmp_path / 'out'}\n")
    code = ("import sys\n"
            "import wlansim.cli\n"
            "plan = wlansim.cli.parse_config(sys.argv[1])\n"
            "assert wlansim.cli.run_plan(plan, jobs=2) == 0\n"
            "pools = ('concurrent', 'multiprocessing')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in pools))\n")
    src = str(Path(wlansim.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", code, str(plan)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
    assert len(list((tmp_path / "out").glob("trace_*.csv"))) == 2
