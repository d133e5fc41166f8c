#!/usr/bin/env python3
"""Benchmark of adiophantine: three workloads, every output oracle-checked.

Run from the repository root:

    python3 bench/run.py --workload decide-1mode --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each call starts after the previous
one returns.  A run repeats passes over the workload's fixed corpus, in an
order shuffled by the seed, until the next pass would end after
``--seconds`` (at least one pass).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
full record, with the environment and (traced) every span, is written to
``bench/results/``.  The exit code is 1 when any oracle or replay check
fails and 2 when the program or ``BENCHMARK.json`` is not in the current
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from corpus import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="adiophantine benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "adiophantine" / "__init__.py").is_file():
        print(f"error: no adiophantine sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported; the
    # setup subprocesses inherit the same setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import harness

    return harness.execute(args.workload, args.seed, args.seconds, args.trace, spec)


if __name__ == "__main__":
    sys.exit(main())
