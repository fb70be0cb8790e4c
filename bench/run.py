#!/usr/bin/env python3
"""Benchmark command.

    python3 bench/run.py --workload logical --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout against the program under ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md
next to this file.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("logical", "synthetic", "predict")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op-loop duration")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mlcascade" / "__init__.py").is_file():
        print(f"bench: no program source at {ROOT / 'src' / 'mlcascade'}", file=sys.stderr)
        return 2
    # The program under test is always the checkout's source, never an installed copy.
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
