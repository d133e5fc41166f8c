"""Print the wall time per unit of simulated time of the checked split,
the midpoint exponential and CF4, at the sector dimensions of the
benchmark's decide runs.

For each sector dimension m = 9, 21, 35, 45 and 75 (one equation of
``bench/corpus.py`` each) it times, in this one process, three runs at a
decide rung's settings (T = ``--total-time``, a record grid of 2, the
default step h = 0.02): the split check's two Strang runs
(``evolution._strang_runs`` at h and h/2, stepped together: 2 iterations
per h), one midpoint exponential run at h (``evolution._run``: 1 step per
h) and one CF4 run at ``CF4_STEP_MULTIPLE`` h (1 step per 4h).  ``evolve``
takes the split from ``SPLIT_MIN_DIMENSION`` = 12 on and CF4 below it, so
m = 9 runs CF4 and the other rows the split; each row shows what the
other integrators would cost there.  The repeats are interleaved (every
case and integrator once per round), and each column prints the least and
the median over the rounds of the run's wall time divided by T.  BLAS is
pinned to one thread.

Run from the repository root: ``python tools/step_cost.py``; about 20 s
on a 2-core host at the defaults.  It reads the package under ``src/`` of
the tree it sits in.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from adiophantine import evolution  # noqa: E402
from adiophantine.diophantine import parse_equation  # noqa: E402
from adiophantine.evolution import EvolutionParams, Integrator  # noqa: E402
from adiophantine.fock import FockBasis  # noqa: E402
from adiophantine.hamiltonians import AdiabaticFamily  # noqa: E402

# (equation, cutoff) per benchmarked sector dimension m: decide-1mode's
# m = 9 and decide-dense's m = 21 to 75
CASES = [
    ("x - 20", 8),
    ("x^2 + y^2 - 25", 5),
    ("x*y*z - 8", 4),
    ("x + y - 5", 8),
    ("x*y - z", 4),
]


def _runs(text: str, cutoff: int, total_time: float):
    """The sector dimension and three timed callables: the split check's
    Strang runs, the midpoint run and the CF4 run."""
    p = parse_equation(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family, start = AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))
    sector = family.sector_for(start)
    params = EvolutionParams(total_time, 0.02, Integrator.SPLIT, record_grid=2)
    midpoint = replace(params, integrator=Integrator.MIDPOINT_EXPONENTIAL)
    cf4 = replace(
        params,
        integrator=Integrator.CF4,
        step=evolution.CF4_STEP_MULTIPLE * params.step,
    )
    runs = {
        "split": lambda: evolution._strang_runs(family, start, sector, params),
        "midexp": lambda: evolution._run(family, start, sector, midpoint),
        "cf4": lambda: evolution._run(family, start, sector, cf4),
    }
    # the start eigensystem and problem classes are cached per sector
    for run in runs.values():
        run()
    return sector.dimension, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--total-time", type=float, default=20.0)
    args = parser.parse_args(argv)

    cases = [_runs(text, cutoff, args.total_time) for text, cutoff in CASES]
    samples = {(m, name): [] for m, runs in cases for name in runs}
    for _ in range(args.repeats):
        for m, runs in cases:
            for name, run in runs.items():
                begin = time.perf_counter()
                run()
                samples[m, name].append((time.perf_counter() - begin) / args.total_time)

    print(f"T = {args.total_time}, h = 0.02, {args.repeats} interleaved rounds; "
          "us per unit of simulated time, least / median")
    print(f"{'m':>3}  {'checked split':>19}  {'midpoint at h':>19}  {'CF4 at 4h':>19}")
    for m, runs in cases:
        cells = []
        for name in runs:
            values = samples[m, name]
            cells.append(f"{min(values) * 1e6:8.1f} / {statistics.median(values) * 1e6:8.1f}")
        print(f"{m:>3}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
