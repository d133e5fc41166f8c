"""Print the wall time per loop iteration of the checked split and per
midpoint step, at the sector dimensions of the benchmark's decide runs.

For each sector dimension m = 9, 21, 35, 45 and 75 (one equation of
``bench/corpus.py`` each) it times, in this one process, the split check's
two Strang runs (``evolution._strang_runs`` at h and h/2, stepped
together, so its iterations are the h/2 run's steps) and one midpoint
exponential run at h (``evolution._run``), both at a decide rung's
settings: T = ``--total-time``, h = 0.02, a record grid of 2.  m = 9 is
below ``SPLIT_MIN_DIMENSION``, where ``evolve`` never takes the split; its
row shows what a Strang iteration would cost there.  The repeats are
interleaved (every case and integrator once per round), and each column
prints the least and the median over the rounds of the run's wall time
divided by its iterations.  BLAS is pinned to one thread.

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
    """The sector dimension and two timed callables, each returning its
    iteration count: the split check's Strang runs and the midpoint run."""
    p = parse_equation(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family, start = AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))
    sector = family.sector_for(start)
    params = EvolutionParams(total_time, 0.02, Integrator.SPLIT, record_grid=2)
    midpoint = replace(params, integrator=Integrator.MIDPOINT_EXPONENTIAL)

    def split() -> int:
        evolution._strang_runs(family, start, sector, params)
        return replace(params, step=params.step / 2).step_count()

    def midexp() -> int:
        evolution._run(family, start, sector, midpoint)
        return midpoint.step_count()

    # the start eigensystem and problem classes are cached per sector
    split()
    midexp()
    return sector.dimension, {"split": split, "midexp": midexp}


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
                iterations = run()
                samples[m, name].append((time.perf_counter() - begin) / iterations)

    print(f"T = {args.total_time}, h = 0.02, {args.repeats} interleaved rounds; "
          "us per iteration, least / median")
    print(f"{'m':>3}  {'checked split':>17}  {'midpoint step':>17}")
    for m, runs in cases:
        cells = []
        for name in runs:
            values = samples[m, name]
            cells.append(f"{min(values) * 1e6:7.2f} / {statistics.median(values) * 1e6:7.2f}")
        print(f"{m:>3}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
