"""Experiment runner front end.

Parses a plan (INI or JSON config plus flag overrides), sweeps the Cartesian
product of protocols, rates, station counts, and seeds, and writes per-run
trace and metrics files plus one experiment_summary.csv. Replaying a plan
with the same seeds reproduces every output byte for byte; existing outputs
are never overwritten unless forced.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import json
import os
import pickle
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .bianchi import solve_fixed_point
from .engine import ConfigError, SimConfig, run_experiment
from .metrics import MetricsReport, normalized_interarrival
from .phy import SUPPORTED_RATES
from .protocols import ProtocolKind
from .schedule import DEFAULT_TABLE, ScheduleRow, ScheduleTable

SUMMARY_COLUMNS = ("protocol", "rate_mbps", "n", "seed", "station",
                   "throughput_mbps", "jfi", "min_max_ratio", "iat_mean_us",
                   "iat_std_us", "loss_fraction", "convergence_us",
                   "bianchi_p", "iat_over_cfmac")
METRICS_COLUMNS = ("station", "throughput_mbps", "jfi", "min_max_ratio",
                   "iat_mean_us", "iat_std_us", "iat_min_us", "iat_max_us",
                   "loss_fraction", "convergence_us")

_PROTOCOLS = {p.value: p for p in ProtocolKind}


@dataclass(frozen=True)
class ExperimentPlan:
    """A sweep, checked as it is built: every axis combination becomes one
    run, whose SimConfig is built here, once, in key order."""

    protocols: tuple[ProtocolKind, ...] = (ProtocolKind.CF_MAC,)
    rates: tuple[int, ...] = (6,)
    stations: tuple[int, ...] = (12,)
    seeds: tuple[int, ...] = (SimConfig.seed,)
    duration_s: float = SimConfig.duration_s
    warmup_s: float = SimConfig.warmup_s
    payload_bytes: int = SimConfig.payload_bytes
    cca_error_prob: float = SimConfig.cca_error_prob
    schedule: ScheduleTable = SimConfig.schedule
    out_dir: Path = Path("results")
    fmt: str = "csv"
    # (key, SimConfig) of every run; derive a new plan with replace()
    cells: tuple[tuple[tuple[str, int, int, int], SimConfig], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("protocols", "rates", "stations", "seeds"):
            # a tuple, so no axis can change under the cells built from it
            axis = tuple(getattr(self, name))
            if not axis:
                raise ConfigError(f"{name}: empty sweep axis")
            if len(set(axis)) != len(axis):
                raise ConfigError(f"{name}: duplicate values")
            object.__setattr__(self, name, axis)
        for rate in self.rates:
            if rate not in SUPPORTED_RATES:
                raise ConfigError(f"rate: unsupported value {rate} "
                                  f"(supported: {SUPPORTED_RATES})")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format: must be csv or json, got {self.fmt}")
        # building each run's SimConfig is that run's check
        object.__setattr__(self, "cells", tuple(
            ((proto, rate, n, seed), SimConfig(
                n_stations=n, protocol=_PROTOCOLS[proto], rate=rate,
                payload_bytes=self.payload_bytes, duration_s=self.duration_s,
                seed=seed, cca_error_prob=self.cca_error_prob,
                warmup_s=self.warmup_s, schedule=self.schedule))
            for proto, rate, n, seed in sorted(
                (p.value, r, n, s) for p in self.protocols
                for r in self.rates for n in self.stations
                for s in self.seeds)))


def _as_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return [tok for tok in str(value).replace(",", " ").split() if tok]


def _parse_protocols(key: str, value) -> list[ProtocolKind]:
    out = []
    for name in _as_list(value):
        if name not in _PROTOCOLS:
            raise ConfigError(f"{key}: unknown name {name!r} "
                              f"(choose from {sorted(_PROTOCOLS)})")
        out.append(_PROTOCOLS[name])
    return out


def _parse_ints(key: str, value) -> list[int]:
    try:
        return [int(tok) for tok in _as_list(value)]
    except ValueError:
        raise ConfigError(f"{key}: expected integers, got {value!r}") from None


def _parse_float(key: str, value) -> float:
    try:
        if isinstance(value, bool):  # float() reads JSON true/false as 1/0
            raise TypeError(value)
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _parse_int(key: str, value) -> int:
    values = _parse_ints(key, value)
    if len(values) != 1:
        raise ConfigError(f"{key}: expected one integer, got {value!r}")
    return values[0]


def _parse_path(key: str, value) -> Path:
    # Path("") is the current directory, which nobody means by an empty value
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{key}: expected a path, got {value!r}")
    return Path(value)


def _parse_schedule(section: dict) -> ScheduleTable:
    rows, given = dict(DEFAULT_TABLE.rows), {}  # given: rate -> its key
    for key, value in section.items():
        try:
            rate = int(key)
        except ValueError:
            raise ConfigError(f"schedule: rate keys must be integers, "
                              f"got {key!r}") from None
        if rate not in SUPPORTED_RATES:
            raise ConfigError(f"schedule.{key}: rate not in {SUPPORTED_RATES}")
        if given.setdefault(rate, key) != key:
            raise ConfigError(f"schedule: {given[rate]} and {key} set the "
                              f"same rate, give one")
        parts = _as_list(value)
        if len(parts) != 2:
            raise ConfigError(f"schedule.{key}: expected 'share, epsilon', "
                              f"got {value!r}")
        row = ScheduleRow(share_us=_parse_float(f"schedule.{key}", parts[0]),
                          epsilon_us=_parse_float(f"schedule.{key}", parts[1]))
        try:
            row.total_us
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"schedule.{key}: {exc}") from None
        rows[rate] = row
    return ScheduleTable(rows=rows)


# section -> plan key -> (ExperimentPlan field, parser); the singular axis
# keys are aliases of the plural ones. [schedule] is read as a whole.
_PLAN_KEYS = {
    "experiment": {
        "protocols": ("protocols", _parse_protocols),
        "protocol": ("protocols", _parse_protocols),
        "rates": ("rates", _parse_ints), "rate": ("rates", _parse_ints),
        "stations": ("stations", _parse_ints),
        "seeds": ("seeds", _parse_ints), "seed": ("seeds", _parse_ints),
        "duration": ("duration_s", _parse_float),
        "warmup": ("warmup_s", _parse_float),
        "payload": ("payload_bytes", _parse_int),
        "cca_error": ("cca_error_prob", _parse_float),
    },
    "output": {
        "directory": ("out_dir", _parse_path),
        "format": ("fmt", lambda key, value: str(value)),
    },
}


def _sections_from_file(path: Path) -> dict[str, dict]:
    if path.suffix.lower() == ".json":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # malformed, too deep
            raise ConfigError(f"config: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config: top level must be an object")
        for name, section in data.items():
            if not isinstance(section, dict):
                raise ConfigError(f"config: section {name} must be an object")
        return data
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        # values are interpolated on access, which can fail as well
        return {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, ValueError) as exc:
        raise ConfigError(f"config: {exc}") from None


def _plan(*layers: dict[str, dict]) -> ExperimentPlan:
    """Apply each layer of plan sections over the defaults, later layers
    winning, then build, and so check, the combined plan once."""
    fields: dict = {}  # ExperimentPlan field -> value
    for sections in layers:
        for name, section in sections.items():
            if name == "schedule":
                fields["schedule"] = _parse_schedule(section)
                continue
            if name not in _PLAN_KEYS:
                raise ConfigError(f"unknown config section: {name}")
            given: dict[str, str] = {}  # field -> the key that set it
            for key, value in section.items():
                if key not in _PLAN_KEYS[name]:
                    raise ConfigError(f"unknown config key: {name}.{key}")
                attr, parse = _PLAN_KEYS[name][key]
                if attr in given:
                    raise ConfigError(f"{name}: {given[attr]} and {key} "
                                      f"set the same axis, give one")
                given[attr] = key
                fields[attr] = parse(key, value)
    return ExperimentPlan(**fields)


def parse_config(path: str | Path) -> ExperimentPlan:
    """Build, and so check, a file's plan; an empty file gives the default."""
    return _plan(_sections_from_file(Path(path)))


def _report_rows(report: MetricsReport) -> list[dict]:
    """The per-station rows and the aggregate row of a report, keyed by
    column name. A missing key, like a None value, is a blank cell; csv
    writes floats with repr, so every digit survives."""
    rows = []
    for i, thr in enumerate(report.per_station_throughput):
        row = {"station": i, "throughput_mbps": thr,
               "loss_fraction": report.per_station_loss[i]}
        stats = report.interarrival.get(i)
        if stats is not None:
            row.update(iat_mean_us=stats.mean, iat_std_us=stats.std,
                       iat_min_us=stats.min, iat_max_us=stats.max)
        rows.append(row)
    rows.append({"station": "aggregate",
                 "throughput_mbps": report.aggregate_throughput,
                 "jfi": report.jfi, "min_max_ratio": report.min_max_ratio,
                 "loss_fraction": report.aggregate_loss,
                 "convergence_us": report.convergence_us})
    return rows


def _row_writer(fh, columns: tuple[str, ...]) -> csv.DictWriter:
    writer = csv.DictWriter(fh, columns, restval="", extrasaction="ignore")
    writer.writeheader()
    return writer


def _write_metrics(path: str, fmt: str, report: MetricsReport) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            _row_writer(fh, METRICS_COLUMNS).writerows(_report_rows(report))


def _execute(job):
    """One sweep cell; failures are reported, not raised, so a bad run
    cannot take the rest of the sweep down with it."""
    key, cfg, trace_path, metrics_path, fmt = job
    try:
        trace, report = run_experiment(cfg)
        trace.write_csv(trace_path)
        _write_metrics(metrics_path, fmt, report)
    except Exception as exc:
        return key, None, f"{type(exc).__name__}: {exc}"
    return key, report, None


def _map_cells(jobs: list, workers: int) -> list:
    """`_execute` over `jobs`, in order, on this process and `workers - 1`
    forked ones. Each takes units of cells (jobs[u::units]) off one pipe
    until it is empty, so no process waits on another's slow cell; a worker
    that dies fails the units it took. Every worker is reaped before this
    returns or raises."""
    units, (todo, todo_end) = min(len(jobs), 256), os.pipe()
    # a unit is a byte, so one read takes one; last first, since a higher
    # rate or station count costs more and the dearest cells go first
    os.write(todo_end, bytes(reversed(range(units))))
    os.close(todo_end)  # so a pull from the emptied pipe ends

    def pull() -> list:  # (unit, results) of each unit this process takes
        return [(u, list(map(_execute, jobs[u::units])))
                for (u,) in iter(lambda: os.read(todo, 1), b"")]

    children = []  # (pid, results pipe)
    try:
        for _ in range(workers - 1):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end), os.close(write_end)
                raise
            if pid == 0:  # the worker never returns into the caller's stack
                try:  # and keeps no read end, so a write no one reads fails
                    os.close(read_end)
                    for _, fh in children:
                        fh.close()
                    with open(write_end, "wb") as fh:
                        pickle.dump(pull(), fh)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        took = pull()
        sent = [fh.read() for _, fh in children]
    finally:
        os.read(todo, units)  # take what is left, so no worker starts more
        os.close(todo)
        for _, fh in children:
            fh.close()
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                 for pid, _ in children]
    dead, done = [], [None] * len(jobs)
    for blob, code in zip(sent, codes):
        try:  # None or a short pickle fails to load
            took += pickle.loads(blob) if code == 0 else None
        except Exception:
            dead.append(f"signal {-code}" if code < 0
                        else f"exit status {code}")
    for unit, results in took:
        done[unit::units] = results
    why = (f"worker ended with {' or '.join(dict.fromkeys(dead))} before "
           f"sending its results")
    return [cell or (job[0], None, why) for cell, job in zip(done, jobs)]


def run_plan(plan: ExperimentPlan, force: bool = False, jobs: int = 1) -> int:
    """Execute every run in the plan and write the summary; returns the
    process exit status (0 ok, 2 if any run failed)."""
    if jobs < 1:
        raise ConfigError("jobs: must be at least 1")
    out_dir = plan.out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary_path = out_dir / "experiment_summary.csv"
    jobs_list = []
    for key, cfg in plan.cells:
        stem = f"{key[0]}_r{key[1]}_n{key[2]}_s{key[3]}"
        jobs_list.append((key, cfg, str(out_dir / f"trace_{stem}.csv"),
                          str(out_dir / f"metrics_{stem}.{plan.fmt}"),
                          plan.fmt))
    if not force:
        targets = [summary_path] + [Path(j[2]) for j in jobs_list] \
                  + [Path(j[3]) for j in jobs_list]
        for target in targets:
            if target.exists():
                raise ConfigError(f"output exists, pass --force to "
                                  f"overwrite: {target}")

    # this process and jobs - 1 forked workers, never more than cells; fork
    # only on Linux (macOS forks unsafely with numpy loaded; Windows cannot)
    workers = min(jobs, len(jobs_list)) if sys.platform == "linux" else 1
    done = _map_cells(jobs_list, workers)

    failed = [(key, error) for key, _, error in done if error is not None]
    for key, error in failed:
        print(f"run {key} failed: {error}", file=sys.stderr)

    # reference mean gap per (rate, n, seed) for the normalized column
    cfmac_ref: dict[tuple[int, int, int], float] = {}
    for key, report, error in done:
        if error is None and key[0] == ProtocolKind.CF_MAC.value:
            means = [s.mean for s in report.interarrival.values()
                     if s is not None]
            if means:
                cfmac_ref[key[1:]] = sum(means) / len(means)

    model_p: dict[int, float] = {}
    with open(summary_path, "w", newline="") as fh:
        writer = _row_writer(fh, SUMMARY_COLUMNS)
        for key, report, error in done:
            if error is not None:
                continue
            proto, rate, n, seed = key
            if n not in model_p:
                model_p[n] = solve_fixed_point(n)[1]
            ref = cfmac_ref.get((rate, n, seed))
            norm = normalized_interarrival(report.interarrival, ref) \
                if ref else {}
            for row in _report_rows(report):
                row.update(protocol=proto, rate_mbps=rate, n=n, seed=seed,
                           bianchi_p=model_p[n],
                           iat_over_cfmac=norm.get(row["station"]))
                writer.writerow(row)
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="wlansim",
                     description="deterministic WLAN contention simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment plan")
    run.add_argument("--config", type=Path, help="INI or JSON plan file")
    # each override's dest is the plan key it replaces
    run.add_argument("--protocol", dest="protocols",
                     choices=sorted(_PROTOCOLS),
                     help="override: single protocol")
    run.add_argument("--stations", type=int, help="override: station count")
    run.add_argument("--rate", type=int, dest="rates", metavar="RATE",
                     help="override: data rate in Mb/s")
    run.add_argument("--duration", type=float, help="simulated seconds")
    run.add_argument("--seed", type=int, dest="seeds", metavar="SEED",
                     help="override: single seed")
    run.add_argument("--cca-error", type=float, dest="cca_error",
                     help="carrier sense flip probability")
    run.add_argument("--warmup", type=float,
                     help="seconds excluded from metrics")
    run.add_argument("--out", dest="directory", metavar="OUT",
                     help="output directory")
    run.add_argument("--format", choices=("csv", "json"),
                     help="per-run metrics file format")
    run.add_argument("--force", action="store_true",
                     help="overwrite existing outputs")
    run.add_argument("--jobs", type=int, default=1,
                     help="cells run at once (forked processes, Linux only)")

    model = sub.add_parser("model", help="print the fixed-point model table")
    model.add_argument("--stations", default="2,4,8,12,24",
                       help="comma-separated station counts")
    return parser


def _plan_from_args(args) -> ExperimentPlan:
    """The plan file, if any, with the flags that were given on top."""
    flags = {name: {key: value for key, value in vars(args).items()
                    if key in keys and value is not None}
             for name, keys in _PLAN_KEYS.items()}
    sections = _sections_from_file(args.config) if args.config else {}
    return _plan(sections, flags)


def _cmd_model(args) -> int:
    counts = _parse_ints("stations", args.stations)
    if not counts:
        raise ConfigError("stations: empty sweep axis")
    # the model raises a float to the power n - 1
    if any(not 1 <= n <= sys.float_info.max for n in counts):
        raise ConfigError(f"stations: counts must lie in [1, "
                          f"{sys.float_info.max!r}], got {args.stations!r}")
    print("n,tau,p")
    for n in counts:
        tau, p = solve_fixed_point(n)
        print(f"{n},{tau!r},{p!r}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "model":
            return _cmd_model(args)
        return run_plan(_plan_from_args(args), force=args.force,
                        jobs=args.jobs)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
