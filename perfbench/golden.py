"""Write golden.json: SHA-256 digests of every output file of every workload.

Run from the root of a checkout whose outputs are known to be right:

    PYTHONPATH=src python3 perfbench/golden.py

It keeps per-file digests for the development seed and the held-out seed,
and one digest of the whole output set for each seed in SET_SEEDS, so that
the benchmark can name a differing file on the first two and still catch a
difference on the others. A change that claims a speed-up must leave every
digest as it is; regenerate only when outputs change on purpose.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import bench
from wlansim import cli
from workloads import WORKLOADS

DEV_SEED = 1
HELD_OUT_SEED = 2
SET_SEEDS = range(100)


def main() -> None:
    work = Path(".perfbench_work") / "golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    files: dict = {}
    sets: dict = {}
    for name, workload in WORKLOADS.items():
        for seed in SET_SEEDS:
            plan_path = work / "plan.json"
            plan_path.write_text(json.dumps(
                workload.plan(seed, str(work / "out"))))
            plan = cli.parse_config(plan_path)
            rc, _, _ = bench.run_once(plan, workload.jobs())
            if rc != 0:
                raise SystemExit(f"{name} seed {seed}: run_plan returned {rc}")
            digests = bench.output_digests(plan.out_dir)
            if seed in (DEV_SEED, HELD_OUT_SEED):
                files.setdefault(name, {})[str(seed)] = digests
            sets.setdefault(name, {})[str(seed)] = bench.set_digest(digests)
        print(f"{name}: {len(SET_SEEDS)} seeds", flush=True)
    shutil.rmtree(work, ignore_errors=True)
    bench.GOLDEN_PATH.write_text(json.dumps(
        {"dev_seed": DEV_SEED, "held_out_seed": HELD_OUT_SEED,
         "files": files, "sets": sets}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
