"""Per-module probes: public calls timed at fixed basis dimensions.

They are the same on every workload, so each traced run reports every
per-layer metric.  Each probe repeats its call until ``MIN_PROBE_S`` has
passed (at least three times) and reports the median call.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from adiophantine import (
    DEFAULT_ALPHA,
    AdiabaticFamily,
    EvolutionParams,
    FockBasis,
    Integrator,
    annihilation,
    coherent_state,
    decide,
    evolve,
    parse_equation,
    problem_diagonal,
)
from adiophantine import cli

import corpus

MIN_PROBE_S = 0.2

# one equation per basis dimension d = (cutoff + 1)^k
AT_DIMENSION = {
    9: ("x - 20", 8),
    36: ("x^2 + y^2 - 25", 5),
    81: ("x*y - 6", 8),
    125: ("x*y*z - 8", 4),
    343: ("x^2 + y^2 - z^2", 6),
    729: ("x^2 + y^2 - z^2", 8),
    4913: ("x^2 + y^2 + z^2 - 7", 16),
}
LADDER_DIMENSIONS = (9, 81, 125, 729)
DIAGONAL_DIMENSIONS = (9, 81, 125, 729, 4913)
FAMILY_DIMENSIONS = (9, 81, 125, 729)
EIGENSOLVE_DIMENSIONS = (9, 81, 125, 343, 729)
STEP_DIMENSIONS = (9, 36, 81, 125)
PROBE_STEPS = 50

NOT_MEASURED = {
    name: "a dense 4913 x 4913 complex matrix takes 386 MB per copy"
    for name in (
        "fock.annihilation_s.d4913",
        "hamiltonians.family_build_s.d4913",
        "hamiltonians.eigensolve_ms.d4913",
    )
}


def median_call(fn) -> float:
    times = []
    started = time.perf_counter()
    while len(times) < 3 or time.perf_counter() - started < MIN_PROBE_S:
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _setup(d):
    text, cutoff = AT_DIMENSION[d]
    p = parse_equation(text)
    return p, FockBasis(p.num_vars, cutoff)


def run(texts: list[str], scratch: Path) -> dict[str, float]:
    """Every probe metric, by name.  ``texts`` is the workload's corpus."""
    out: dict[str, float] = {}
    out["diophantine.parse_s"] = median_call(lambda: [parse_equation(t) for t in texts])
    for d in LADDER_DIMENSIONS:
        _, basis = _setup(d)
        out[f"fock.coherent_state_s.d{d}"] = median_call(
            lambda: coherent_state(basis, DEFAULT_ALPHA)
        )
        out[f"fock.annihilation_s.d{d}"] = median_call(lambda: annihilation(basis, 0))
    for d in DIAGONAL_DIMENSIONS:
        p, basis = _setup(d)
        out[f"hamiltonians.problem_diagonal_s.d{d}"] = median_call(
            lambda: problem_diagonal(p, basis)
        )
    for d in FAMILY_DIMENSIONS:
        p, basis = _setup(d)
        out[f"hamiltonians.family_build_s.d{d}"] = median_call(
            lambda: AdiabaticFamily.from_polynomial(p, basis)
        )
    for d in EIGENSOLVE_DIMENSIONS:
        p, basis = _setup(d)
        family, _ = AdiabaticFamily.from_polynomial(p, basis)
        h = family.hamiltonian(0.5)
        out[f"hamiltonians.eigensolve_ms.d{d}"] = 1e3 * median_call(h.eigenvalues)
    for d in STEP_DIMENSIONS:
        p, basis = _setup(d)
        out[f"evolution.step_us.d{d}"] = _step_us(p, basis, Integrator.MIDPOINT_EXPONENTIAL, 0.02)
    # RK4 is explicit: use the certify cross-check's equation and step
    text, cutoff, _, step, _ = corpus.INTEGRATORS
    p = parse_equation(text)
    out["evolution.rk4_step_us.d81"] = _step_us(p, FockBasis(2, cutoff), Integrator.RK4, step)
    out["cli.decide_overhead_s"] = _cli_overhead(scratch)
    return out


def _step_us(p, basis, integrator: Integrator, step: float) -> float:
    family, start = AdiabaticFamily.from_polynomial(p, basis)
    params = EvolutionParams(PROBE_STEPS * step, step, integrator=integrator, record_grid=2)
    return 1e6 * median_call(lambda: evolve(family, start, params)) / PROBE_STEPS


def _cli_decide(out_dir: str) -> None:
    code = cli.main(["decide", "x - 1", "--out", out_dir])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"cli decide exited with {code}")


def _cli_overhead(scratch: Path) -> float:
    """``cli.main(["decide", ...])`` minus the library ``decide`` on x - 1."""
    p = parse_equation("x - 1")
    out_dir = tempfile.mkdtemp(dir=scratch)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            via_cli = median_call(lambda: _cli_decide(out_dir))
    finally:
        shutil.rmtree(out_dir)
    return via_cli - median_call(lambda: decide(p))
