"""Benchmark entry point.

    python3 bench/run.py --workload six-capacity --seed 0 --seconds 25 --trace 0

Runs one workload (six-capacity, windowed-6 or verify) for about
``--seconds`` seconds, checks every output, and prints one JSON line:
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
and writes its spans to ``bench/out/``. The package is imported from the
checkout's ``src/``; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("six-capacity", "windowed-6", "verify")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import cvrptw_gas
    except ImportError as exc:
        sys.stderr.write(f"cannot import the package from {SRC}: {exc}\n")
        return 2
    if Path(cvrptw_gas.__file__).resolve().parent != SRC / "cvrptw_gas":
        sys.stderr.write(f"imported cvrptw_gas from {cvrptw_gas.__file__}, not from {SRC}\n")
        return 2
    import workloads

    result = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
