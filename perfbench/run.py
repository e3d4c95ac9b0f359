"""wlansim benchmark: one workload per invocation, all times in host seconds.

Run from the root of a wlansim checkout:

    python3 perfbench/run.py --workload csma-dense --seed 1 --seconds 30 --trace 0

The launcher writes the workload's plan from the seed, then starts fresh
processes with ``src`` on the import path: pairs of set-up samples
(``setup_probe.py``: one imports wlansim and validates the plan, the other
imports numpy alone as a reference for the host's speed), half before and
half after one process that repeats the workload for ``--seconds`` and
checks every output file against the golden digests. Times are rescaled
for the host's speed at the moment of measuring (see NUMPY_REF_S here and
``bench.CAL_REF_S``). With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced pass; metric names and
units come from BENCHMARK.json. The last line of standard output is one
JSON object; every line before it is for people.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path.cwd()
WORK = Path(".perfbench_work")
PROBE = Path(__file__).resolve().with_name("setup_probe.py")
SETUP_PAIRS = 10
# Set-up is import work, and on a shared host its speed swings twofold for
# tens of seconds at a time. Each set-up sample is paired with the import of
# numpy alone in the next fresh process, and set-up times are rescaled to a
# numpy import time of NUMPY_REF_S, about its time on the reference host.
NUMPY_REF_S = 0.09
SETUP_TIMEOUT_S = 30
MEASURE_MARGIN_S = 110  # past --seconds: set-up, the last repetition, checks


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the roles of the fresh processes the launcher starts
    parser.add_argument("--role", choices=("launch", "measure"),
                        default="launch", help=argparse.SUPPRESS)
    parser.add_argument("--plan", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def _check_source(path: str) -> None:
    source = Path(path).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"error: imported wlansim from {source}, "
                         f"not from {ROOT / 'src'}")


def _role_measure(args) -> dict:
    import numpy
    import wlansim.cli

    import bench
    _check_source(wlansim.cli.__file__)
    plan = wlansim.cli.parse_config(args.plan)
    workload = WORKLOADS[args.workload]
    spans_dir = Path(args.plan).parent / "spans"
    result = bench.measure(plan, workload.name, args.seed, workload.jobs(),
                           args.seconds, bool(args.trace), spans_dir)
    result["numpy"] = numpy.__version__
    return result


def _run_child(cmd: list[str], what: str, timeout: float) -> dict:
    """Run ``cmd`` in a fresh process with ``src`` on its import path and
    return the JSON object on the last line of its output."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException as exc:  # a timeout, or this process is stopping
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"error: {what} process exceeded {timeout} s")
        raise
    if proc.returncode != 0:
        raise SystemExit(f"error: {what} process exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _measure_child(args, plan_path: Path) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role",
           "measure", "--plan", str(plan_path), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    return _run_child(cmd, "measure", args.seconds + MEASURE_MARGIN_S)


def _setup_pair(plan_path: Path) -> dict:
    """One set-up sample and the numpy import just after it, each in a
    fresh process; the set-up times come back rescaled."""
    sample = _run_child([sys.executable, str(PROBE), str(plan_path)],
                        "set-up", SETUP_TIMEOUT_S)
    _check_source(sample["source"])
    numpy_s = _run_child([sys.executable, str(PROBE), "--numpy"],
                         "set-up", SETUP_TIMEOUT_S)["numpy_s"]
    scale = NUMPY_REF_S / numpy_s
    return {"raw_s": sample["import_s"] + sample["parse_s"],
            "numpy_s": numpy_s,
            "setup_s": (sample["import_s"] + sample["parse_s"]) * scale,
            "parse_s": sample["parse_s"] * scale}


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env=dict(os.environ,
                                 GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """SHA-256 over the package sources, naming the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "wlansim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def _launch(args) -> int:
    signal.signal(signal.SIGTERM, _stop)  # so that children are stopped too
    if not (ROOT / "src" / "wlansim" / "__init__.py").is_file():
        print("error: src/wlansim not found; run from the root of a wlansim "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        plan_path = run_dir / "plan.json"
        plan_path.write_text(json.dumps(
            workload.plan(args.seed, str(run_dir / "out")), indent=1))
        # half the set-up samples before the measured process and half
        # after it, so that one slow spell of the host cannot hold them all
        setups = [_setup_pair(plan_path) for _ in range(SETUP_PAIRS // 2)]
        result = _measure_child(args, plan_path)
        setups += [_setup_pair(plan_path)
                   for _ in range(SETUP_PAIRS - SETUP_PAIRS // 2)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not result["walls"] or (args.trace and not result["traced_walls"]):
        for line in result["problems"]:
            print(line, file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    env = {"workload": args.workload, "seed": args.seed,
           "traced": bool(args.trace), "seconds": args.seconds,
           "nproc": len(os.sched_getaffinity(0)), "jobs": workload.jobs(),
           "python": platform.python_version(), "numpy": result["numpy"],
           "git_revision": _git_revision(), "source_sha256": _source_digest()}
    # every time is a median of host seconds rescaled to the reference host
    walls, scales = result["walls"], result["scales"]
    wall_s = statistics.median(w * k for w, k in zip(walls, scales))
    figures = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall_s,
        "records_per_s": result["records"] / wall_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    if args.trace:
        figures.update(result["layers"])
        figures["cli.parse_s"] = statistics.median(s["parse_s"]
                                                   for s in setups)
        figures["trace_overhead"] = (statistics.median(result["traced_walls"])
                                     / wall_s - 1)
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({"env": env,
                                          "spans": result["spans"]}))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
               for m in listed}

    print("env " + json.dumps(env))
    for line in result["problems"]:
        print("MISMATCH " + line)
    if result["failed"]:
        print(f"{result['failed']} of {result['attempted']} repetitions "
              f"failed; the first one's problems are listed above")
    checked = ("golden digests" if result["golden"] else
               "repeatability only (no golden digests for this seed)")
    print(f"{args.workload}: {result['attempted']} repetitions, outputs "
          f"checked against {checked}")
    print(f"  raw untraced wall over {len(walls)} repetitions: min "
          f"{min(walls):.4f} s, median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s; host speed factor median "
          f"{statistics.median(scales):.3f} (range {min(scales):.3f} to "
          f"{max(scales):.3f})")
    raw_setup = [s["raw_s"] for s in setups]
    print(f"  raw set-up over {len(setups)} fresh processes: min "
          f"{min(raw_setup):.4f} s, median {statistics.median(raw_setup):.4f}"
          f" s, max {max(raw_setup):.4f} s; numpy import median "
          f"{statistics.median(s['numpy_s'] for s in setups):.4f} s")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    fail_frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':28s} {fail_frac:>16.6g} failed/attempted")
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.role == "launch":
        return _launch(args)
    print(json.dumps(_role_measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
