"""Regenerate the policy checkpoint the control-case14 workload runs.

    python3 perfbench/make_checkpoint.py

Trains one seeded case14 agent briefly through ``harness.run_single`` and
writes ``perfbench/data/control_case14.json`` with its sha256 beside it. The
benchmark refuses to run on a checkpoint whose digest does not match, so a
change to SAC training can never change the control workload's trajectories
unnoticed. Seeded runs are byte-stable on one machine but not across
machines, so regenerating elsewhere gives a different (equally valid) file.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from gridsac import harness  # noqa: E402
from gridsac.sac import SacConfig  # noqa: E402
from workloads import (CASE14, CHECKPOINT, CHECKPOINT_SHA256,  # noqa: E402
                       CHECKPOINT_TRAIN_SEED)


def main() -> None:
    work = Path(tempfile.mkdtemp(dir=HERE.parent, prefix=".perfbench_ckpt_"))
    try:
        snaps = work / "snapshots"
        harness.generate_snapshots(harness.SnapshotGenSpec(
            base_case_path=str(CASE14), output_dir=str(snaps), n_snapshots=2000,
            seed=CHECKPOINT_TRAIN_SEED))
        run = harness.RunConfig(
            run_id="control-case14",
            sac=SacConfig(lr_q=5e-4, lr_pi=5e-4, lr_alpha=5e-4, n_epochs=3,
                          start_steps=10000, updates_per_step=2, random_seed=17),
            case_path=str(CASE14), snapshot_dir=str(snaps), seed=1)
        result = harness.run_single(run, work / "runs")
        CHECKPOINT.parent.mkdir(exist_ok=True)
        shutil.copyfile(result.checkpoint_path, CHECKPOINT)
        digest = hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest()
        CHECKPOINT_SHA256.write_text(f"{digest}  {CHECKPOINT.name}\n")
        print(f"{CHECKPOINT}: sha256 {digest}; held-out solved fraction "
              f"{result.report.valid_control_fraction:.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
