"""Print the wall time per unit of simulated time of the checked split,
the midpoint exponential and CF4, at the sector dimensions of the
benchmark's decide runs, and the wall time of the split's runs on rungs
that refuse its check.

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
the median over the rounds of the run's wall time divided by T.

The last two rows time the rungs of ``REFUSED``, whose checks at h are
refused: the check's Strang runs at h and h/2, the retry's at h/2 and h/4,
and CF4 at h, which runs when the retry is refused too.  ``x^2 + y^2 -
25`` at T = 80 accepts its retry, and ``(x-7)*(x-8)`` at T = 10 refuses it
and runs CF4.  They print the least and the median of each run's wall
time in ms, from the same interleaved rounds.

The last table splits one iteration of the split check (one step of each
Strang run stepping, or of the h/2 run alone) at m = 21, 45 and 75 into
three costs: the phase evaluation (``evolution._unit_phases`` within the
blocks' preparation), the rest of the blocks' preparation (the schedule
weights, the angles and the gather onto the orbits) and the four-call
step (``advance``).  Each is the time of a whole check at the rung's
settings divided by its iterations, least and median in ns over the same
rounds; what is left of a check's time is the block driver's (step
grids, norm checks, copies).  BLAS is pinned to one thread.

Run from the repository root: ``python tools/step_cost.py``; about 40 s
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

# (equation, cutoff, T) of decide rungs that refuse the split check at h:
# the first accepts its retry at h/2 (m = 45), the second refuses it too
# (m = 13)
REFUSED = [("x^2 + y^2 - 25", 8, 80.0), ("(x-7)*(x-8)", 12, 10.0)]

# the sector dimensions of CASES whose split check iteration is split into
# its costs
ITERATION_DIMENSIONS = (21, 45, 75)


def _iteration_costs(family, start, sector, params) -> tuple[float, float, float]:
    """One split check of ``params`` (``evolution._strang_runs``), timed by
    parts: the seconds per iteration spent evaluating phases while blocks
    are prepared, in the rest of the blocks' preparation and in the steps.
    The phase function and the block driver are wrapped for the one call."""
    clock = time.perf_counter
    totals = {"phases": 0.0, "prepare": 0.0, "step": 0.0, "iterations": 0}
    unit_phases, propagate = evolution._unit_phases, evolution._propagate

    def timed_phases(*args):
        begin = clock()
        phases = unit_phases(*args)
        totals["phases"] += clock() - begin
        return phases

    def timed_propagate(family, init, sector, runs, step_bytes, prepare, *rest):
        def timed_prepare(*args):
            begin = clock()
            advance = prepare(*args)
            totals["prepare"] += clock() - begin

            def timed_advance(lo, hi):
                begin = clock()
                advance(lo, hi)
                totals["step"] += clock() - begin
                totals["iterations"] += hi - lo

            return timed_advance

        result = propagate(family, init, sector, runs, step_bytes, timed_prepare, *rest)
        # the closing half phases, evaluated after the last block, go untimed
        evolution._unit_phases = unit_phases
        return result

    evolution._unit_phases, evolution._propagate = timed_phases, timed_propagate
    try:
        evolution._strang_runs(family, start, sector, params)
    finally:
        evolution._unit_phases, evolution._propagate = unit_phases, propagate
    count, phases = totals["iterations"], totals["phases"]
    return phases / count, (totals["prepare"] - phases) / count, totals["step"] / count


def _runs(text: str, cutoff: int, total_time: float, refused: bool = False):
    """The sector dimension and three timed callables: the split check's
    Strang runs, the midpoint run and the CF4 run at 4h; or, if
    ``refused``, the check's Strang runs, the retry's and the CF4 run at h."""
    p = parse_equation(text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        family, start = AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))
    sector = family.sector_for(start)
    params = EvolutionParams(total_time, 0.02, Integrator.SPLIT, record_grid=2)
    cf4 = replace(params, integrator=Integrator.CF4)
    if refused:
        runs = {
            "check": lambda: evolution._strang_runs(family, start, sector, params),
            "retry": lambda: evolution._strang_runs(
                family, start, sector, replace(params, step=params.step / 2)
            ),
            "cf4": lambda: evolution._run(family, start, sector, cf4),
        }
    else:
        midpoint = replace(params, integrator=Integrator.MIDPOINT_EXPONENTIAL)
        cf4 = replace(cf4, step=evolution.CF4_STEP_MULTIPLE * params.step)
        runs = {
            "split": lambda: evolution._strang_runs(family, start, sector, params),
            "midexp": lambda: evolution._run(family, start, sector, midpoint),
            "cf4": lambda: evolution._run(family, start, sector, cf4),
        }
        if sector.dimension in ITERATION_DIMENSIONS:
            runs["iteration"] = lambda: _iteration_costs(family, start, sector, params)
    # the start eigensystem and problem classes are cached per sector
    for run in runs.values():
        run()
    return sector.dimension, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--total-time", type=float, default=20.0)
    args = parser.parse_args(argv)

    # (row label, T, runs): the dimension rows, then the refused rungs
    rows = [
        (m, args.total_time, runs)
        for m, runs in (_runs(text, cutoff, args.total_time) for text, cutoff in CASES)
    ]
    refused = [
        (text, cutoff, T, *_runs(text, cutoff, T, refused=True)) for text, cutoff, T in REFUSED
    ]
    rows += [(text, T, runs) for text, _, T, _, runs in refused]
    samples = {(label, name): [] for label, _, runs in rows for name in runs}
    for _ in range(args.repeats):
        for label, total_time, runs in rows:
            for name, run in runs.items():
                begin = time.perf_counter()
                costs = run()
                if name == "iteration":
                    samples[label, name].append(costs)
                else:
                    samples[label, name].append(time.perf_counter() - begin)

    def cell(values, scale):
        return f"{min(values) * scale:8.1f} / {statistics.median(values) * scale:8.1f}"

    def cells(label, runs, scale):
        return "  ".join(
            cell(samples[label, name], scale) for name in runs if name != "iteration"
        )

    print(f"T = {args.total_time}, h = 0.02, {args.repeats} interleaved rounds; "
          "us per unit of simulated time, least / median")
    print(f"{'m':>3}  {'checked split':>19}  {'midpoint at h':>19}  {'CF4 at 4h':>19}")
    for label, total_time, runs in rows[: len(CASES)]:
        print(f"{label:>3}  " + cells(label, runs, 1e6 / total_time))
    print("\nrefused at h = 0.02; ms per run, least / median")
    print(f"{'m':>3}  {'check at h':>19}  {'retry at h/2':>19}  {'CF4 at h':>19}  rung")
    for text, cutoff, total_time, m, runs in refused:
        print(f"{m:>3}  {cells(text, runs, 1e3)}  {text}@{cutoff}, T = {total_time}")
    print("\none split check iteration; ns per iteration, least / median")
    print(f"{'m':>3}  {'phases':>19}  {'rest of prepare':>19}  {'four-call step':>19}")
    for m in ITERATION_DIMENSIONS:
        parts = zip(*samples[m, "iteration"])
        print(f"{m:>3}  " + "  ".join(cell(values, 1e9) for values in parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
