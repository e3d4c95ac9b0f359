"""Golden outputs: every trace and metrics byte of a short sweep is pinned.

A change that only restructures or speeds up the simulator must leave these
SHA-256 digests as they are. The sweep covers all protocols at rates 6, 11
and 48 with 12 and 50 stations, seeds 1 and 2, 0.5 simulated seconds each,
at CCA error probabilities 0, 0.05 and 0.5; the last is the only one whose
noise regularly sends stations off the shared slot grid (a revert when
nobody transmits, a phantom hold that arms a reduced backoff). Two single
CfMac cells (r48 n50 seed 3 at 0.5, r6 n12 seed 3 at 1.0) are pinned on top,
because in them two off-grid stations come due at the same instant, which
the sweep's seeds never reach.

Regenerate the digests only when outputs change on purpose, from the root
of a checkout whose outputs are known to be right:

    PYTHONPATH=src python3 tests/test_golden.py
"""
from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from wlansim.cli import ExperimentPlan, run_plan
from wlansim.protocols import ProtocolKind

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")
SWEEPS = {  # digest key -> ExperimentPlan fields beyond the shared ones
    **{repr(c): dict(cca_error_prob=c) for c in (0.0, 0.05, 0.5)},
    "ties-r48-n50": dict(protocols=[ProtocolKind.CF_MAC], rates=[48],
                         stations=[50], seeds=[3], cca_error_prob=0.5),
    "ties-r6-n12": dict(protocols=[ProtocolKind.CF_MAC], rates=[6],
                        stations=[12], seeds=[3], cca_error_prob=1.0),
}
_JOBS = max(1, min(2, os.cpu_count() or 1))


def _digests(sweep: str, out_dir: Path) -> dict[str, str]:
    fields = dict(protocols=list(ProtocolKind), rates=[6, 11, 48],
                  stations=[12, 50], seeds=[1, 2], duration_s=0.5,
                  warmup_s=0.1, out_dir=out_dir, fmt="json")
    fields.update(SWEEPS[sweep])
    assert run_plan(ExperimentPlan(**fields), jobs=_JOBS) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("sweep", SWEEPS)
def test_outputs_match_golden_digests(tmp_path, sweep):
    expected = json.loads(GOLDEN_PATH.read_text())[sweep]
    got = _digests(sweep, tmp_path)
    assert sorted(got) == sorted(expected)
    differing = [name for name in expected if got[name] != expected[name]]
    assert not differing, f"outputs differ from golden: {differing}"


def main(work: Path) -> None:
    golden = {sweep: _digests(sweep, work / sweep) for sweep in SWEEPS}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        main(Path(tmp))
