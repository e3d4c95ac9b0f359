"""Tests of the benchmark itself. From the root of the checkout:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
from wlansim import cli  # noqa: E402
from wlansim.trace import TraceLog  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _plan(tmp_path: Path, workload: str, seed: int):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(
        WORKLOADS[workload].plan(seed, str(tmp_path / "out"))))
    return cli.parse_config(path)


def _launch(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def test_spec_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(m["name"]), m
        assert UNIT.fullmatch(m["unit"]), m
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_launcher_prints_every_listed_metric_with_its_unit(trace):
    out = _launch("--workload", "cfmac-steady", "--seed", "1",
                  "--seconds", "0", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"],
                    "unit": m["unit"]} for m in listed}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_outputs_match_golden_digests(tmp_path, workload, seed):
    expected = bench.load_golden(workload, seed)
    assert isinstance(expected, dict)
    plan = _plan(tmp_path, workload, seed)
    result = bench.measure(plan, workload, seed, WORKLOADS[workload].jobs(),
                           0, False, tmp_path / "spans")
    assert result["golden"]
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]


@pytest.mark.parametrize("seed", [1, 5])  # per-file and whole-set digests
def test_tampered_trace_byte_counts_as_failure(tmp_path, monkeypatch, seed):
    write_csv = TraceLog.write_csv

    def tampered(trace, path):
        write_csv(trace, path)
        data = bytearray(Path(path).read_bytes())
        data[-2] ^= 1
        Path(path).write_bytes(bytes(data))

    monkeypatch.setattr(TraceLog, "write_csv", tampered)
    plan = _plan(tmp_path, "cfmac-steady", seed)
    result = bench.measure(plan, "cfmac-steady", seed, 1, 0, False,
                           tmp_path / "spans")
    assert result["failed"] / result["attempted"] > 0
    assert any("trace_" in line for line in result["problems"])


@pytest.mark.parametrize("workload", ["cfmac-steady", "sweep-mixed"])
def test_traced_and_untraced_runs_write_identical_outputs(tmp_path, workload):
    plan = _plan(tmp_path, workload, 7)
    jobs = WORKLOADS[workload].jobs()
    rc, _, spans = bench.run_once(plan, jobs)
    assert rc == 0 and spans is None
    untraced = bench.output_digests(plan.out_dir)
    rc, _, spans = bench.run_once(plan, jobs, tmp_path / "spans")
    assert rc == 0
    assert bench.output_digests(plan.out_dir) == untraced
    cells = {s["cell"] for s in spans if s["name"] == "cli.cell"}
    assert len(cells) == WORKLOADS[workload].cells()
    figures = bench.layer_figures(spans, jobs, 1.0)
    assert figures["engine.records"] == bench.record_count(plan.out_dir)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _launch("--workload", "csma-dense", "--seed", "1", "--seconds", "1",
                  cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
