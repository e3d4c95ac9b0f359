"""Measurement side of the benchmark; runs in a fresh process per workload.

Each repetition calls ``cli.run_plan`` on the workload's validated plan,
exactly as ``wlansim run`` does, into an emptied output directory. Its host
time is ``wall_s``. After the repetition, outside the timed region, every
output file is hashed and compared with the golden digests (or, for a seed
without stored digests, with the first repetition of the run).

Host speed drifts on a shared machine: the same input has run at half speed
for a minute at a time. So each repetition is bracketed by a fixed
pure-Python calibration kernel, and its host seconds are rescaled by
``CAL_REF_S`` over the kernel's mean time just before and just after it:
seconds on a host where the kernel takes ``CAL_REF_S``. The kernel uses
nothing from wlansim, so no change to the program can move it.

A traced repetition produces the same outputs but wraps the public calls of
each layer in spans: ``cli.run_plan`` and ``solve_fixed_point`` in this
process, and per sweep cell (in a pool worker when ``jobs`` > 1) the cell
itself, ``run_experiment``, a separate ``compute_report`` on the returned
trace and ``TraceLog.write_csv``. The wrappers are installed from outside
the package for the duration of the repetition; nothing in wlansim changes.
"""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import resource
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

from wlansim import cli, metrics
from wlansim.trace import Outcome, TraceLog

# the cell function run_plan maps over, captured before any wrapper exists
_EXECUTE = cli._execute
GOLDEN_PATH = Path(__file__).with_name("golden.json")
CAL_REF_S = 0.04  # calibration kernel time on the reference host


def calibration_s() -> float:
    """Host seconds of a fixed kernel of the kind of work the simulator
    does: random draws, tuple allocation, a sort and dict updates."""
    t0 = time.perf_counter()
    rng = random.Random(12345)
    for _ in range(20):  # small batches, so that peak RSS does not move
        items = [(rng.randrange(1000), i) for i in range(2000)]
        items.sort()
        totals: dict[int, int] = {}
        for key, i in items:
            totals[key] = totals.get(key, 0) + i
    return time.perf_counter() - t0


class Tracer:
    """Spans kept in memory: name, start, end, parent span id and cell id."""

    def __init__(self, cell: str | None = None, parent: str | None = None):
        self.cell = cell
        self.spans: list[dict] = []
        self._stack = [parent]

    @contextmanager
    def span(self, name: str):
        record = {"id": f"{self.cell or 'plan'}.{len(self.spans)}",
                  "parent": self._stack[-1], "name": name, "cell": self.cell,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced


def _traced_execute(spans_dir: str, parent: str, job):
    """Stands in for ``cli._execute`` during a traced repetition; module
    level so that the process pool can pickle it. Spans of the cell go to
    one JSON line per cell in ``spans_dir``, after the cell has finished."""
    from unittest import mock  # not at the top: see run_once
    key, config = job[0], job[1]
    tracer = Tracer("{}_r{}_n{}_s{}".format(*key), parent)
    run_experiment, write_csv = cli.run_experiment, TraceLog.write_csv
    counts: dict = {"n": config.n_stations}

    def traced_run(cfg):
        with tracer.span("engine.run_experiment"):
            trace, report = run_experiment(cfg)
        with tracer.span("metrics.compute_report"):
            metrics.compute_report(trace)
        steady = metrics.steady_state_start(trace)
        counts["records"] = len(trace.records)
        counts["successes"] = sum(1 for r in trace.records
                                  if r.outcome is Outcome.SUCCESS)
        counts["steady_records"] = 0 if steady is None else sum(
            1 for r in trace.records if r.start >= steady)
        return trace, report

    def traced_write(trace, path):
        with tracer.span("trace.write_csv") as record:
            write_csv(trace, path)
        record["bytes"] = os.path.getsize(path)

    with mock.patch.object(cli, "run_experiment", traced_run), \
            mock.patch.object(TraceLog, "write_csv", traced_write):
        with tracer.span("cli.cell") as record:
            result = _EXECUTE(job)
    record.update(counts)
    with open(Path(spans_dir) / f"{os.getpid()}.jsonl", "a") as fh:
        fh.write(json.dumps(tracer.spans) + "\n")
    return result


def output_digests(out_dir: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def set_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {sha}\n" for name, sha in sorted(digests.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(workload: str, seed: int):
    """Per-file digests for the development and held-out seeds, a digest of
    the whole output set for the other stored seeds, else None."""
    if not GOLDEN_PATH.exists():
        return None
    golden = json.loads(GOLDEN_PATH.read_text())
    files = golden["files"].get(workload, {}).get(str(seed))
    if files is not None:
        return files
    return golden["sets"].get(workload, {}).get(str(seed))


def mismatches(digests: dict[str, str], expected) -> list[str]:
    """What differs from the expected digests, one line per difference."""
    if isinstance(expected, str):
        got = set_digest(digests)
        return [] if got == expected else [
            f"output set digest {got} != golden {expected}; files: "
            + ", ".join(f"{k}={v[:16]}" for k, v in sorted(digests.items()))]
    out = [f"{name}: sha256 {digests.get(name)} != golden {sha}"
           for name, sha in sorted(expected.items())
           if digests.get(name) != sha]
    out += [f"{name}: not in golden set" for name in sorted(digests)
            if name not in expected]
    return out


def record_count(out_dir: Path) -> int:
    """Trace records in the output directory (data rows of trace_*.csv)."""
    return sum(p.read_bytes().count(b"\n") - 1
               for p in out_dir.glob("trace_*.csv"))


def run_once(plan, jobs: int, spans_dir: Path | None = None):
    """One repetition into an empty output directory. Returns the exit
    status, the host seconds of run_plan and, when traced, its spans."""
    shutil.rmtree(plan.out_dir, ignore_errors=True)
    if spans_dir is None:
        t0 = time.perf_counter()
        rc = cli.run_plan(plan, jobs=jobs)
        return rc, time.perf_counter() - t0, None
    # imported only when traced: unittest.mock pulls in asyncio, whose
    # memory would otherwise count in the peak RSS of untraced runs
    from unittest import mock
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    tracer = Tracer()
    with tracer.span("cli.run_plan") as top:
        cell = functools.partial(_traced_execute, str(spans_dir), top["id"])
        with mock.patch.object(cli, "_execute", cell), \
                mock.patch.object(cli, "solve_fixed_point",
                        tracer.wrap("bianchi.solve_fixed_point",
                                    cli.solve_fixed_point)):
            rc = cli.run_plan(plan, jobs=jobs)
    spans = tracer.spans
    for path in sorted(spans_dir.glob("*.jsonl")):
        for line in path.read_text().splitlines():
            spans.extend(json.loads(line))
    return rc, top["end"] - top["start"], spans


def layer_figures(spans: list[dict], jobs: int,
                  scale: float) -> dict[str, float]:
    """Per-layer figures of one traced repetition, every span duration
    multiplied by ``scale``. Engine time of a cell is its run_experiment
    span minus the separate compute_report span."""
    def _duration(span: dict) -> float:
        return (span["end"] - span["start"]) * scale

    cells: dict[str, dict] = {}
    run_plan_s = bianchi_s = 0.0
    for s in spans:
        if s["cell"] is not None:
            cells.setdefault(s["cell"], {})[s["name"]] = s
        elif s["name"] == "cli.run_plan":
            run_plan_s = _duration(s)
        elif s["name"] == "bianchi.solve_fixed_point":
            bianchi_s += _duration(s)
    engine_s = metrics_s = write_s = cell_s = 0.0
    nbytes = records = successes = steady = 0
    per_n: dict[int, list[float]] = {}  # n -> [engine seconds, records]
    for c in cells.values():
        info = c["cli.cell"]
        engine = (_duration(c["engine.run_experiment"])
                  - _duration(c["metrics.compute_report"]))
        engine_s += engine
        metrics_s += _duration(c["metrics.compute_report"])
        write_s += _duration(c["trace.write_csv"])
        cell_s += _duration(info)
        nbytes += c["trace.write_csv"]["bytes"]
        records += info["records"]
        successes += info["successes"]
        steady += info["steady_records"]
        acc = per_n.setdefault(info["n"], [0.0, 0])
        acc[0] += engine
        acc[1] += info["records"]
    us = {n: 1e6 * host / count for n, (host, count) in per_n.items()}
    return {
        "engine.host_s": engine_s,
        "engine.us_per_record": 1e6 * engine_s / records,
        "engine.n_scaling": us[max(us)] / us[min(us)],
        "engine.records": records,
        "engine.success_ratio": successes / records,
        "engine.deterministic_share": steady / records,
        "metrics.host_s": metrics_s,
        "metrics.us_per_record": 1e6 * metrics_s / records,
        "trace.write_s": write_s,
        "trace.bytes": nbytes,
        "trace.mb_per_s": nbytes / 1e6 / write_s,
        "cli.run_plan_s": run_plan_s,
        "cli.cell_s_sum": cell_s,
        "cli.parallel_efficiency": cell_s / (jobs * run_plan_s),
        "bianchi.solve_s": bianchi_s,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child
    (a pool worker), in MB; Linux reports ru_maxrss in KiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure(plan, workload: str, seed: int, jobs: int, seconds: float,
            traced: bool, spans_dir: Path) -> dict:
    """Repeat the workload for ``seconds`` (at least once); with ``traced``
    each repetition is a pair of one untraced and one traced run. Returns
    the raw host seconds and the rescaling factor of every untraced
    repetition, the per-layer figures of the median traced one, and what
    went wrong in the first failed one."""
    expected = load_golden(workload, seed)
    golden = expected is not None
    walls, scales, traced_walls, traced_reps = [], [], [], []
    records = None
    attempted = failed = 0
    problems: list[str] = []
    calibration = calibration_s()
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for with_spans in ((False, True) if traced else (False,)):
            attempted += 1
            before = calibration
            try:
                rc, wall, spans = run_once(
                    plan, jobs, spans_dir if with_spans else None)
                calibration = calibration_s()
                digests = output_digests(plan.out_dir)
            except Exception as exc:  # a crashed repetition is a failed one
                failed += 1
                problems = problems or [f"repetition {attempted}: "
                                        f"{type(exc).__name__}: {exc}"]
                calibration = calibration_s()
                continue
            scale = CAL_REF_S / ((before + calibration) / 2)
            if expected is None:
                expected = digests
            bad = mismatches(digests, expected)
            if rc != 0:
                bad.append(f"run_plan returned {rc}")
            if bad:
                failed += 1
                problems = problems or [f"repetition {attempted}: {line}"
                                        for line in bad]
            if records is None:
                records = record_count(plan.out_dir)
            if not with_spans:
                walls.append(wall)
                scales.append(scale)
            elif rc == 0:  # every cell ran, so its spans are complete
                traced_walls.append(wall * scale)
                traced_reps.append((layer_figures(spans, jobs, scale), spans))
    result = {"attempted": attempted, "failed": failed, "problems": problems,
              "golden": golden, "walls": walls, "scales": scales,
              "traced_walls": traced_walls, "records": records,
              "peak_rss_mb": peak_rss_mb()}
    if traced_reps:
        order = sorted(range(len(traced_reps)), key=traced_walls.__getitem__)
        result["layers"] = traced_reps[order[(len(order) - 1) // 2]][0]
        result["spans"] = [spans for _, spans in traced_reps]
    return result
