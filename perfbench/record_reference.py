"""Re-record ``reference.json``: the report artefact digests and the
explore-grid point-cycle digests (pass 1, and pass 2 at the default
seed).  Run from the repository root after a change that is meant to
alter simulated results:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import run
from workloads import DEFAULT_SEED


def main() -> int:
    root = os.getcwd()
    path = os.path.join(run.HERE, "reference.json")
    reference = {}
    work_root = os.path.join(root, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=work_root)
    try:
        for workload in ("report-cold", "explore-grid"):
            args = argparse.Namespace(workload=workload, seed=DEFAULT_SEED,
                                      seconds=10)
            result = run.run_child(root, work, args, record=True,
                                   deadline=time.monotonic() + 600)
            reference[workload] = result["reference"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
