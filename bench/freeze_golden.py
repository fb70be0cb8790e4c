#!/usr/bin/env python3
"""Write the golden outputs under bench/golden/ from the current program at seed 1.

    python3 bench/freeze_golden.py

Run it only when a change is meant to alter the program's outputs; the
benchmark compares every seed-1 run against these files cell by cell.
"""

import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import GOLDEN_SEED, README_LOGICAL_EXACT, WORKLOADS, write_golden  # noqa: E402


def main() -> int:
    scratch = ROOT / ".bench_tmp" / "freeze"
    try:
        for cls in WORKLOADS.values():
            workload = cls(GOLDEN_SEED)
            workdir = scratch / workload.name
            workdir.mkdir(parents=True)
            workload.setup(workdir)
            for slot in range(workload.slots):
                outcome = workload.check(slot, workload.op(slot))
                for name, text in outcome.artifacts.items():
                    print(write_golden(name, text, compress=text.count("\n") > 100))
            if workload.name == "logical":
                cells = outcome.artifacts["logical-exactmatch.csv"].splitlines()[1].split(",")
                means = [float(c) for c in cells[1::2]]
                if means != README_LOGICAL_EXACT:
                    print(f"logical exact-match means {means} differ from the README "
                          f"table {README_LOGICAL_EXACT}", file=sys.stderr)
                    return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
