"""Run one sep4 benchmark workload and print its metrics.

From the root of a checkout:

    python3 bench/run.py --workload verdict-mix --seed 1 --seconds 30 --trace 0

Workloads: verdict-mix, decompose-separable, oracle-ces, batch-cli (see
bench/README.md).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record goes to ``bench/results/``.  Exits 2 when the checkout holds
no ``src/sep4`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
# One BLAS thread per process: batch-cli runs two workers on two cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("verdict-mix", "decompose-separable", "oracle-ces", "batch-cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "sep4" / "__init__.py").is_file():
        print(f"no sep4 package under {SRC}: run from the root of a sep4 checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import sep4

    if Path(sep4.__file__).resolve().parent != SRC / "sep4":
        print(f"imported sep4 from {sep4.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("lines"):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
