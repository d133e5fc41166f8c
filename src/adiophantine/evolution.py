"""Time integration of d(psi)/dt = -i H(t/T) psi and zero-step extrapolation.

Three fixed-step integrators ship.  RK4 and the midpoint exponential are
independent of each other, so that each can validate the other; the split
integrator is the production path, checked at run time and backed by the
midpoint exponential:

* ``RK4``: classic 4th-order Runge-Kutta on the linear flow.  Not unitary;
  the norm drift is reported as a diagnostic and large drift aborts the run
  with a step-size advisory.  No renormalization is applied.  A step outside
  RK4's stability interval on the imaginary axis is refused before the run.
* ``MIDPOINT_EXPONENTIAL``: per step applies exp(-i h H(s_mid)) through a
  dense eigendecomposition of the midpoint operator, so every step is
  exactly unitary and the global error is second order in the step.  The
  run goes a block of steps at a time: the schedule is evaluated once per
  block, on the array of its midpoints, and the midpoint operators are
  diagonalized in one ``eigh`` call on a stack of up to 64 KiB of matrices
  (``hamiltonians.STACK_BYTES``), because a lone eigensolve of a small
  matrix costs mostly numpy's fixed per-call overhead.  The state is still
  propagated and checked step by step, and each step's result is bitwise
  that of an eigensolve of its own.
* ``SPLIT``: the Strang splitting (Strang 1968, SIAM J. Numer. Anal. 5:506)
  of the midpoint step,
  e^{-i(h/2) w_P H_P} W e^{-i h w_I Lambda} W^T e^{-i(h/2) w_P H_P},
  with the schedule weights (w_I, w_P) at the step midpoint and the
  sector's start operator diagonalized once, H_I = W Lambda W^T
  (``SymmetricSector.start_eigensystem``).  A step is two real matrix
  products and two diagonal phase multiplies, with no eigensolve; the
  closing problem half phase of a step and the opening one of the next are
  one multiply.  Its error depends on the commutator of H_I and H_P, which
  no a-priori bound separates from the stiff failures (McLachlan & Quispel,
  "Splitting methods", Acta Numerica 11, 2002), so the result is checked a
  posteriori: a Strang run at h and one at h/2 must give every class of
  equal problem value the same final probability within
  ``SPLIT_TOLERANCE`` = 1e-3.  The h/2 run is then returned, else the
  midpoint exponential at h.  On the decision rungs of the 21 bench
  equations and of ``x + y - 20`` and ``x^2 + y^2 - 25`` at cutoff 8, the
  accepted checks disagreed by at most 7.8e-4 and the three rejected ones
  (stiff rungs of ``x^2 + y^2 - 25``) by at least 2.9e-3; no checked rung's
  top class came within 2e-2 of the 1/2 bar, and the returned class
  probabilities stayed within 3.5e-5 of the midpoint exponential's.  Split
  runs only where it pays: at sector dimension m >=
  ``SPLIT_MIN_DIMENSION`` = 12.  Per step h, one stacked midpoint step took
  14.9, 18.6 and 20.7 us at m = 9, 11 and 12, and the checked split's two
  Strang runs 18.8 us at each (one BLAS thread).  Smaller sectors get the
  midpoint exponential, bitwise.  Not in zero-step extrapolation: a scheme
  that picks its propagator per run has no fixed order.

H(s) is real symmetric, so its eigensolves run in real arithmetic.  The
state stays complex, in one buffer that a step updates in place: a real
matrix multiplies it through its (m, 2) real view (as ``fock.matvec``
does), because numpy would otherwise cast the whole matrix to complex on
every product, and the per-step norm check is one dot product of its 2m
floats.  Schedules follow the array contract of ``hamiltonians.Schedule``.
Step grids are built per block from the step index
(``EvolutionParams.step_grid``), never for a whole run.

All integrators run in the family's symmetric sector when the start state
lies in it: the mode permutations that fix the problem diagonal and the
start operator commute with every H(s), so the state stays in the subspace
they fix, and each step works on its m x m orbit-basis arrays instead of
the d x d ones.  Otherwise they run on the full space, the trivial sector.
Recorded probabilities and the final state are always on the full basis.

The step size is fixed (no adaptive control) so that extrapolating the
recorded observable to zero step size stays well defined: runs at step
sizes in a fixed geometric ratio feed a Richardson extrapolation that also
estimates the observed convergence order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .fock import StateVector, matvec
from .hamiltonians import (
    STACK_BYTES,
    AdiabaticFamily,
    SymmetricSector,
    _debug,
    stack_length,
)

__all__ = [
    "Integrator",
    "SPLIT_MIN_DIMENSION",
    "SPLIT_TOLERANCE",
    "EvolutionParams",
    "EvolutionAborted",
    "ExtrapolationError",
    "EvolutionTrace",
    "evolve",
    "richardson_from_values",
    "ExtrapolationResult",
    "extrapolate_to_zero_step",
]

NORM_TOLERANCE = 1e-10  # required closeness of the initial state to unit norm

# largest |norm - 1| after any step before the run is aborted
NORM_DRIFT_LIMIT = 1e-3

# RK4's stability interval on the imaginary axis: |h * lambda| <= 2 sqrt(2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


# smallest sector dimension at which a split step is tried: below it one
# stacked midpoint step costs no more than the two checked Strang runs
SPLIT_MIN_DIMENSION = 12

# largest difference of any class probability between the Strang runs at h
# and h/2 for which the h/2 run is returned
SPLIT_TOLERANCE = 1e-3


class Integrator(Enum):
    RK4 = "rk4"
    MIDPOINT_EXPONENTIAL = "midexp"
    SPLIT = "split"


def split_block_length(dimension: int) -> int:
    """How many Strang steps share one ``weights`` call: as many as fill
    ``STACK_BYTES`` with their two rows of m complex phases, m =
    ``dimension``; at least one."""
    return max(1, STACK_BYTES // (32 * dimension))


class EvolutionAborted(RuntimeError):
    """Integration stopped: non-finite amplitudes or excessive norm drift."""


class ExtrapolationError(RuntimeError):
    """Zero-step extrapolation could not be carried out."""


@dataclass(frozen=True)
class EvolutionParams:
    """Fixed-step run description.

    ``total_time / step`` full steps are taken (rounded down, with a
    floating slack of one part in 1e9) and any remainder is covered by one
    exact final partial step, so the run ends at ``total_time`` exactly.
    A non-finite ``total_time`` or step count is refused.
    """

    total_time: float
    step: float
    integrator: Integrator = Integrator.MIDPOINT_EXPONENTIAL
    record_grid: int = 101

    def __post_init__(self):
        if not 0 < self.total_time < math.inf:
            raise ValueError("total_time must be positive and finite")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.step > self.total_time * (1 + 1e-12):
            raise ValueError("step must not exceed total_time")
        if self.total_time / self.step == math.inf:
            raise ValueError(f"step count {self.total_time} / {self.step} overflows")
        if self.record_grid < 2:
            raise ValueError("record_grid must be at least 2")

    def _full_steps_and_remainder(self) -> tuple[int, float]:
        full = int(math.floor(self.total_time / self.step + 1e-9))
        remainder = max(self.total_time - full * self.step, 0.0)
        return full, remainder if remainder > 1e-9 * self.step else 0.0

    def step_count(self) -> int:
        """Number of steps, the partial final one included."""
        full, remainder = self._full_steps_and_remainder()
        return full + (remainder > 0.0)

    def step_grid(self, first: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Start times and sizes of steps ``first`` to ``stop - 1``.

        Step j starts at j * step; all are ``step`` long but a partial final
        step, which covers the remainder.  Computed for the requested steps
        only, so a run never holds its whole grid.
        """
        full, remainder = self._full_steps_and_remainder()
        starts = np.arange(first, stop) * self.step
        sizes = np.full(len(starts), self.step)
        if stop > full:
            sizes[-1] = remainder
        return starts, sizes

    def step_starts_and_sizes(self) -> tuple[list[float], list[float]]:
        """The whole :meth:`step_grid` as lists of floats."""
        starts, sizes = self.step_grid(0, self.step_count())
        return starts.tolist(), sizes.tolist()


@dataclass(frozen=True, eq=False)
class EvolutionTrace:
    """Recorded run: snapshot times, raw basis probabilities |psi_i|^2,
    norm errors, and the final state."""

    times: np.ndarray
    probabilities: np.ndarray
    norm_errors: np.ndarray
    final_state: StateVector
    params: EvolutionParams

    def final_probabilities(self) -> np.ndarray:
        """Basis probabilities of the final state, normalized to sum 1."""
        raw = self.final_state.probabilities()
        return raw / raw.sum()

    def to_csv(self) -> str:
        lines = ["t,norm_error,p_top1,p_top2,top1_index"]
        for t, row, err in zip(self.times, self.probabilities, self.norm_errors):
            order = np.argsort(row, kind="stable")
            top1 = int(order[-1])
            p1 = float(row[top1])
            p2 = float(row[order[-2]]) if row.size > 1 else 0.0
            lines.append(f"{float(t)!r},{float(err)!r},{p1!r},{p2!r},{top1}")
        return "\n".join(lines) + "\n"

    def probabilities_json_dict(self) -> dict:
        return {
            "basis": self.final_state.basis.to_json_dict(),
            "times": [float(t) for t in self.times],
            "probabilities": [[float(p) for p in row] for row in self.probabilities],
            "norm_errors": [float(e) for e in self.norm_errors],
        }


def _derivative_for(
    sector: SymmetricSector,
) -> Callable[[list[float], np.ndarray], np.ndarray]:
    """d(psi)/dt = -i H psi in ``sector``, for the schedule weights (w_I, w_P)
    of one stage."""
    initial, problem_diag = sector.initial, sector.problem

    def apply(weights: list[float], psi: np.ndarray) -> np.ndarray:
        wi, wp = weights
        problem_part = ((-1j * wp) * problem_diag) * psi
        return (-1j * wi) * matvec(initial, psi) + problem_part

    return apply


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    """e^{i angles} for real ``angles``, through one cos and one sin call:
    cheaper than numpy's complex exp, which Strang steps make once per
    problem and start phase."""
    phases = np.empty(angles.shape, dtype=np.complex128)
    parts = phases.view(np.float64).reshape(*angles.shape, 2)
    np.cos(angles, out=parts[..., 0])
    np.sin(angles, out=parts[..., 1])
    return phases


def _check_rk4_stable(
    family: AdiabaticFamily, step: float, stage_weights: np.ndarray
) -> None:
    """Refuse an RK4 run whose step leaves the stability interval of H(s).

    ||H(s)|| <= |w_I(s)| ||H_I|| + |w_P(s)| max H_P at each stage point of
    the run, with ||H_I|| bounded by its largest absolute row sum; for a
    convex schedule this is max(||H_I||, max H_P).
    """
    initial_norm = float(np.abs(family.initial.array).sum(axis=1).max())
    problem_norm = float(np.abs(family.problem_values).max())
    scale = float((np.abs(stage_weights) @ (initial_norm, problem_norm)).max())
    if step * scale > RK4_STABILITY_LIMIT:
        raise EvolutionAborted(
            f"RK4 step {step} times the operator norm bound {scale:.6g} "
            f"exceeds the stability limit 2*sqrt(2); retry with a smaller step "
            f"(stability alone needs at most {RK4_STABILITY_LIMIT / scale:.6g}) "
            f"or with the midpoint exponential"
        )


def evolve(
    family: AdiabaticFamily, init: StateVector, params: EvolutionParams
) -> EvolutionTrace:
    """Integrate from t = 0 to t = total_time with s = t / total_time.

    ``init`` must be normalized.  The run steps in ``family.sector`` when
    ``init`` lies in it (amplitudes equal within each orbit), else on the
    full space; either way the recorded probabilities and the final state
    are on the full basis, and orbit-mates carry equal amplitudes.  Norm
    drift and finiteness are checked after every step on the state that is
    stepped, whose norm is that of the full state.  The run goes a block of
    steps at a time, with one ``weights`` call on the block's step grid: a
    block is ``stack_length(m)`` steps for the midpoint exponential (m the
    sector dimension), one stacked ``eigh`` and one ``exp`` each, and
    ``split_block_length(m)`` steps for a Strang run.  The block's steps are
    then applied and checked one by one, so a run aborts at the same step
    whatever the block length, and a non-finite schedule weight raises
    ``ValueError`` when its block is due.  RK4 computes its stage weights
    for the whole run before the first step, and refuses a step outside the
    stability interval of the full H(s), which bounds the sector's, with
    :class:`EvolutionAborted`; it steps in blocks of ``stack_length(m)``.

    ``Integrator.SPLIT`` picks the propagator (see the module docstring);
    the returned trace's ``params`` are those of the run that made it, so
    they name the integrator and step that actually ran.  Logs the basis and
    sector dimensions, the group order and the block length of every run,
    and the split check's outcome, at DEBUG level.
    """
    if init.basis != family.basis:
        raise ValueError("initial state does not live on the family's basis")
    if abs(init.norm() - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"initial state norm {init.norm()} is not 1")
    sector = family.sector_for(init)
    if params.integrator is not Integrator.SPLIT:
        return _run(family, init, sector, params)

    midpoint = replace(params, integrator=Integrator.MIDPOINT_EXPONENTIAL)
    if sector.dimension < SPLIT_MIN_DIMENSION:
        return _run(family, init, sector, midpoint)
    try:
        coarse = _run(family, init, sector, replace(params, record_grid=2))
        fine = _run(family, init, sector, replace(params, step=params.step / 2))
    except (EvolutionAborted, ValueError) as err:
        # the midpoint run below raises its own error, at its own step
        outcome, disagreement = f"split failed ({err})", math.inf
    else:
        classes = np.unique(family.problem_values, return_inverse=True)[1]
        disagreement = float(
            np.abs(
                np.bincount(classes, weights=coarse.final_probabilities())
                - np.bincount(classes, weights=fine.final_probabilities())
            ).max()
        )
        outcome = f"class disagreement {disagreement:.3e}"
    accepted = disagreement <= SPLIT_TOLERANCE
    _debug(
        __name__,
        "evolve split: %s between steps %r and %r, tolerance %r; %s",
        outcome,
        params.step,
        params.step / 2,
        SPLIT_TOLERANCE,
        "returning the Strang run at the half step"
        if accepted
        else "returning the midpoint run",
    )
    return fine if accepted else _run(family, init, sector, midpoint)


def _run(
    family: AdiabaticFamily,
    init: StateVector,
    sector: SymmetricSector,
    params: EvolutionParams,
) -> EvolutionTrace:
    """One fixed-step run of ``params.integrator`` in ``sector``, which holds
    ``init``; ``SPLIT`` here means the Strang step itself, unchecked."""
    n_steps = params.step_count()
    total_time = params.total_time
    drift_limit = NORM_DRIFT_LIMIT
    # more than n_steps + 1 points are spaced under 1 and round to every step
    grid = np.linspace(0, n_steps, min(params.record_grid, n_steps + 1))
    record_after = set(int(round(x)) for x in grid)
    use_rk4 = params.integrator is Integrator.RK4
    use_split = params.integrator is Integrator.SPLIT
    m = sector.dimension
    if use_rk4:
        # schedule weights at each step's start, midpoint and end, computed
        # (and checked finite) once, before the first step
        starts, sizes = params.step_grid(0, n_steps)
        stage_weights = np.stack(
            [
                family.weights(np.clip(stage / total_time, 0.0, 1.0))
                for stage in (starts, starts + 0.5 * sizes, starts + sizes)
            ],
            axis=1,
        )
        _check_rk4_stable(family, params.step, stage_weights)
        derivative = _derivative_for(sector)
    if use_split:
        block = split_block_length(m)
        start_energies, start_vectors = sector.start_eigensystem
        # the problem half phase that closes the last step taken, as the
        # angle w_P h / 2: it is merged into the next step's opening half,
        # and the final state gets it after the last step
        pending = 0.0
    else:
        block = stack_length(m)
    _debug(
        __name__,
        "evolve: basis dimension %d, sector dimension %d, group order %d, "
        "block length %d",
        family.dimension,
        m,
        sector.group_order,
        block,
    )

    # The state is one buffer of 2m floats, stepped in place: ``psi`` is its
    # complex view and ``pairs`` its (m, 2) real view, which a real matrix
    # multiplies in real arithmetic (as ``fock.matvec`` does).  ``rotated``
    # holds the state in the eigenbasis of one step's H(s_mid), or of the
    # start operator for a Strang step.
    state = sector.reduce(init.amplitudes).view(np.float64)
    psi = state.view(np.complex128)
    pairs = state.reshape(m, 2)
    rotated = np.empty((m, 2))
    rotated_psi = rotated.view(np.complex128).reshape(m)
    no_rows = itertools.repeat(None)
    times: list[float] = []
    probabilities: list[np.ndarray] = []
    norm_errors: list[float] = []

    def snapshot(t: float) -> None:
        # a pending problem half phase is diagonal and leaves these exact
        full = sector.expand(psi)
        times.append(t)
        probabilities.append(full.real**2 + full.imag**2)
        norm_errors.append(abs(float(np.linalg.norm(psi)) - 1.0))

    if 0 in record_after:
        snapshot(0.0)

    for first in range(0, n_steps, block):
        stop = min(first + block, n_steps)
        starts, sizes = params.step_grid(first, stop)
        # the time after each step; the run ends at total_time exactly
        ends = starts + sizes
        if stop == n_steps:
            ends[-1] = total_time
        diagonals = phases = vectors = no_rows
        if not use_rk4:
            midpoints = (starts + 0.5 * sizes) / total_time
            # s = t / T clamped to [0, 1], as for the RK4 stages; no start is
            # negative, so the upper clamp alone gives the same bits and costs
            # a third of np.clip, once per block
            weights = family.weights(np.minimum(midpoints, 1.0))
        if use_split:
            # e^{-i(h/2) w_P H_P} e^{-i h w_I H_I} e^{-i(h/2) w_P H_P} per step,
            # H_I = W diag(energies) W^T; the closing half phase of a step and
            # the opening one of the next are one diagonal multiply
            half = (0.5 * sizes) * weights[:, 1]
            opening = half.copy()
            opening[0] += pending
            opening[1:] += half[:-1]
            pending = float(half[-1])
            diagonals = _unit_phases(np.multiply.outer(-opening, sector.problem))
            phases = _unit_phases(
                np.multiply.outer(-sizes * weights[:, 0], start_energies)
            )
            vectors = itertools.repeat(start_vectors)
        elif not use_rk4:
            # the stack of H(s) is not kept past its eigensolve
            energies, vectors = np.linalg.eigh(family.path_arrays(weights, sector))
            phases = np.exp((-1j * sizes)[:, None] * energies)

        for j, end, diagonal, phase, vector in zip(
            range(first, stop), ends.tolist(), diagonals, phases, vectors
        ):
            if use_rk4:
                h = float(sizes[j - first])
                w0, wm, w1 = stage_weights[j].tolist()
                k1 = derivative(w0, psi)
                k2 = derivative(wm, psi + (0.5 * h) * k1)
                k3 = derivative(wm, psi + (0.5 * h) * k2)
                k4 = derivative(w1, psi + h * k3)
                psi[:] = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            else:
                if diagonal is not None:
                    np.multiply(diagonal, psi, psi)
                vector.T.dot(pairs, out=rotated)
                np.multiply(phase, rotated_psi, rotated_psi)
                vector.dot(rotated, out=pairs)

            # the norm from the dot product of the 2m floats with themselves;
            # a NaN or infinite amplitude always makes it non-finite
            norm = math.sqrt(state.dot(state))
            if not abs(norm - 1.0) <= drift_limit:
                if not math.isfinite(norm):
                    raise EvolutionAborted(
                        f"non-finite amplitudes at t={end}; reduce the "
                        f"step size (currently {params.step})"
                    )
                raise EvolutionAborted(
                    f"norm drift {abs(norm - 1.0):.3e} at t={end} "
                    f"exceeds {drift_limit}; retry with a smaller step, e.g. "
                    f"{params.step / 2}"
                )
            if j + 1 in record_after:
                snapshot(end)

    if use_split:
        psi *= _unit_phases(-pending * sector.problem)
    return EvolutionTrace(
        times=np.array(times),
        probabilities=np.array(probabilities),
        norm_errors=np.array(norm_errors),
        final_state=StateVector(family.basis, sector.expand(psi)),
        params=params,
    )


def richardson_from_values(
    values: Sequence[float], ratio: float
) -> tuple[float, float, float | None]:
    """Extrapolate a sequence sampled at step sizes h, h*ratio, h*ratio^2, ...

    Assumes a leading error term proportional to h^q.  The observed order q
    is fitted from the last three samples; the elimination itself uses the
    nearest integer order (fixed-step schemes have integer leading orders,
    and reusing the fitted q would make the two pair-extrapolants coincide
    identically, hiding the error).  Returns (extrapolated value, error
    estimate, observed order) where the error estimate is the difference
    between the extrapolants built from the last two pairs.  Identical
    samples mean the observable already converged: the common value is
    returned with zero error and no measured order.  Residuals that fail to
    shrink raise :class:`ExtrapolationError`.
    """
    if len(values) < 3:
        raise ExtrapolationError("need at least three step sizes")
    if not 0.0 < ratio < 1.0:
        raise ExtrapolationError("step ratio must be in (0, 1)")
    v0, v1, v2 = (float(v) for v in values[-3:])
    d1 = v1 - v0
    d2 = v2 - v1
    if d2 == 0.0:
        # converged, at the latest between the two finest runs
        return v2, 0.0, None
    if abs(d2) >= abs(d1):
        raise ExtrapolationError(
            "not in asymptotic regime: residuals do not shrink "
            f"(|{d1:.3e}| then |{d2:.3e}|)"
        )
    order = math.log(abs(d1) / abs(d2)) / math.log(1.0 / ratio)
    elimination_order = max(1, round(order))
    growth = (1.0 / ratio) ** elimination_order
    extrapolant_prev = v1 + d1 / (growth - 1.0)
    extrapolant_last = v2 + d2 / (growth - 1.0)
    return extrapolant_last, abs(extrapolant_last - extrapolant_prev), order


@dataclass(frozen=True)
class ExtrapolationResult:
    value: float
    error_estimate: float
    observed_order: float | None
    step_sizes: tuple[float, ...]
    observable_values: tuple[float, ...]
    observable: int


def extrapolate_to_zero_step(
    family: AdiabaticFamily,
    init: StateVector,
    total_time: float,
    steps: Sequence[float],
    observable: int,
    integrator: Integrator = Integrator.MIDPOINT_EXPONENTIAL,
) -> ExtrapolationResult:
    """Run at each step size and Richardson-extrapolate one basis probability.

    ``steps`` must be at least three step sizes, positive and finite and
    strictly decreasing in a fixed geometric ratio (for example h, h/2,
    h/4); else :class:`ExtrapolationError` is raised.  The tracked
    observable is the normalized probability of one basis index in the
    final state.  ``Integrator.SPLIT`` is refused: it picks its propagator
    per run, so its results have no fixed order in the step.
    """
    if integrator is Integrator.SPLIT:
        raise ExtrapolationError(
            "the split integrator picks its propagator per run and has no "
            "fixed order; extrapolate with rk4 or midexp"
        )
    sizes = [float(h) for h in steps]
    if len(sizes) < 3:
        raise ExtrapolationError("need at least three step sizes")
    pairs = list(zip(sizes, sizes[1:]))
    if not all(0 < h < math.inf for h in sizes):
        raise ExtrapolationError(f"step sizes must be positive and finite: {sizes}")
    if any(b >= a for a, b in pairs):
        raise ExtrapolationError("step sizes must be strictly decreasing")
    ratio = sizes[1] / sizes[0]
    if any(abs(b / a - ratio) > 1e-9 for a, b in pairs):
        raise ExtrapolationError(f"step sizes must form a geometric sequence: {sizes}")
    if not 0 <= observable < family.dimension:
        raise ValueError(f"observable index {observable} outside the basis")

    observed = []
    for h in sizes:
        params = EvolutionParams(
            total_time=total_time, step=h, integrator=integrator, record_grid=2
        )
        trace = evolve(family, init, params)
        observed.append(float(trace.final_probabilities()[observable]))

    value, error, order = richardson_from_values(observed, ratio)
    return ExtrapolationResult(
        value=value,
        error_estimate=error,
        observed_order=order,
        step_sizes=tuple(sizes),
        observable_values=tuple(observed),
        observable=observable,
    )
