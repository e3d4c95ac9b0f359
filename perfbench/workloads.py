"""Benchmark workloads: each turns a seed into one wlansim plan file.

This module imports nothing from wlansim, so the launcher can write the
plan before the measured process imports the package. Simulated seconds
only set the input size; every figure the benchmark reports is host time.
Why each workload was chosen is in BENCHMARK.json and README.md.
"""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: dict       # the plan's [experiment] section, minus seeds
    seed_offsets: tuple    # plan seeds are the benchmark seed plus these
    parallel: bool         # run_plan with jobs = nproc instead of 1

    def plan(self, seed: int, out_dir: str) -> dict:
        experiment = dict(self.experiment,
                          seeds=[seed + k for k in self.seed_offsets])
        return {"experiment": experiment,
                "output": {"directory": out_dir, "format": "csv"}}

    def cells(self) -> int:
        e = self.experiment
        return (len(e["protocols"]) * len(e["rates"]) * len(e["stations"])
                * len(self.seed_offsets))

    def jobs(self) -> int:
        if not self.parallel:
            return 1
        return max(1, min(len(os.sched_getaffinity(0)), self.cells()))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="csma-dense",
        experiment={"protocols": ["CsmaCa"], "rates": [48],
                    "stations": [12, 50], "duration": 0.6, "warmup": 0.1,
                    "cca_error": 0.0},
        seed_offsets=(0,),
        parallel=False),
    Workload(
        name="cfmac-steady",
        experiment={"protocols": ["CfMac"], "rates": [48], "stations": [12],
                    "duration": 10.0, "warmup": 1.0, "cca_error": 0.0},
        seed_offsets=(0,),
        parallel=False),
    Workload(
        name="sweep-mixed",
        experiment={"protocols": ["CfMac", "CsmaCa", "CsmaEca"],
                    "rates": [11, 24], "stations": [12], "duration": 1.0,
                    "warmup": 0.1, "cca_error": 0.05},
        seed_offsets=(0, 1),
        parallel=True),
)}
