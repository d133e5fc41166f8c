"""Time integration of d(psi)/dt = -i H(t/T) psi.

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
  propagated step by step, and each step's result is bitwise that of an
  eigensolve of its own.
* ``SPLIT``: the Strang splitting (Strang 1968, SIAM J. Numer. Anal. 5:506)
  of the midpoint step,
  e^{-i(h/2) w_P H_P} W e^{-i h w_I Lambda} W^T e^{-i(h/2) w_P H_P},
  with the schedule weights (w_I, w_P) at the step midpoint and the
  sector's start operator diagonalized once, H_I = W Lambda W^T
  (``SymmetricSector.start_eigensystem``).  A step is two real matrix
  products and two diagonal phase multiplies, with no eigensolve; the
  closing problem half phase of a step and the opening one of the next are
  one multiply, and the problem phases are evaluated once per distinct
  problem value (``SymmetricSector.problem_classes``) and gathered onto the
  orbits.  Its error depends on the commutator of H_I and H_P, which
  no a-priori bound separates from the stiff failures (McLachlan & Quispel,
  "Splitting methods", Acta Numerica 11, 2002), so the result is checked a
  posteriori: a Strang run at h and one at h/2 must give every class of
  equal problem value the same final probability within
  ``SPLIT_TOLERANCE`` = 1e-3.  The h/2 run is then returned, else the
  midpoint exponential at h.  The two runs are stepped in one loop, as the
  two columns of one (m, 2) complex state: iteration i applies step i of
  both with the four calls one run's step makes.  After the h run's last
  step its column gets its closing half phase and leaves, and the h/2 run
  goes on alone, so N steps of h cost 2N iterations rather than 3N.  On the
  decision rungs of the 21 bench equations and of ``x + y - 20`` and
  ``x^2 + y^2 - 25`` at cutoff 8, the accepted checks disagreed by at most
  7.8e-4 and the three rejected ones (stiff rungs of ``x^2 + y^2 - 25``)
  by at least 2.9e-3; no checked rung's top class came within 2e-2 of the
  1/2 bar, and the returned class probabilities stayed within 3.5e-5 of
  the midpoint exponential's.  Split runs at sector dimension m >=
  ``SPLIT_MIN_DIMENSION`` = 12.  Smaller sectors get the midpoint
  exponential, bitwise: a Strang step is cheaper there, but the checks
  that fail pay for both Strang runs and the midpoint run (README "The
  split integrator" has the costs).

H(s) is real symmetric, so its eigensolves run in real arithmetic.  The
state stays complex, in one buffer that a step updates in place: a real
matrix multiplies it through its (m, 2) real view (as ``fock.matvec``
does), because numpy would otherwise cast the whole matrix to complex on
every product.  A run's norm check is one dot product of its 2m floats
(a Strang run's copied out of the two-column state while both step).
RK4 checks the norm after every step.  Midpoint and Strang steps
are unitary up to rounding, so their loops apply a block's steps with no
check and check each run's norm at the block's end: a norm that is
non-finite or off 1 by more than half the drift limit sends the block to
a replay from a copy of its start, one step at a time with the check
after every step.  A NaN or infinite amplitude survives every phase
multiply and matrix product of a step, and a run's norm moves far less
than half the limit within a block, so the replay stops every step the
per-step check stops, with the same error at the same time, whatever the
block length.  Schedules follow the array contract of
``hamiltonians.Schedule``.
Step grids are built per block from the step index
(``EvolutionParams.step_grid``), never for a whole run; a grid gives each
step's end time, the run's last being ``total_time`` exactly, so every
loop records and aborts at the same times.

All integrators run in the family's symmetric sector when the start state
lies in it: the mode permutations that fix the problem diagonal and the
start operator commute with every H(s), so the state stays in the subspace
they fix, and each step works on its m x m orbit-basis arrays instead of
the d x d ones.  Otherwise they run on the full space, the sector of the
trivial group, whose orbit formulas leave every amplitude's value as is.
Recorded probabilities and the final state are always on the full basis.

The step size is fixed (no adaptive control) so that runs are bitwise
reproducible and the split check can compare a run at h with one at h/2.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    "EvolutionTrace",
    "evolve",
]

NORM_TOLERANCE = 1e-10  # required closeness of the initial state to unit norm

# largest |norm - 1| after any step before the run is aborted
NORM_DRIFT_LIMIT = 1e-3

# RK4's stability interval on the imaginary axis: |h * lambda| <= 2 sqrt(2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


# smallest sector dimension at which a split step is tried; smaller sectors
# stay on the bitwise midpoint exponential although a Strang step is cheaper
# there, because the checks that fail pay for both Strang runs and the
# midpoint run: at 1 the decide-1mode p90 latency doubled (README "The split
# integrator")
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
    ``STACK_BYTES`` with their two rows of ``dimension`` complex phases,
    m per run stepped together; at least one."""
    return max(1, STACK_BYTES // (32 * dimension))


class EvolutionAborted(RuntimeError):
    """Integration stopped: non-finite amplitudes or excessive norm drift."""


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

    def step_grid(
        self, first: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Start times, sizes and end times of steps ``first`` to ``stop - 1``.

        Step j starts at j * step; all are ``step`` long but a partial final
        step, which covers the remainder.  A step ends at its start plus its
        size, except the run's last, which ends at ``total_time`` exactly.
        Computed for the requested steps only, so a run never holds its
        whole grid.
        """
        full, remainder = self._full_steps_and_remainder()
        starts = np.arange(first, stop) * self.step
        sizes = np.full(len(starts), self.step)
        if stop > full:
            sizes[-1] = remainder
        ends = starts + sizes
        if stop == self.step_count():
            ends[-1] = self.total_time
        return starts, sizes, ends

    def step_starts_and_sizes(self) -> tuple[list[float], list[float]]:
        """The whole :meth:`step_grid` as lists of floats."""
        starts, sizes, _ = self.step_grid(0, self.step_count())
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
    full space, the sector of the trivial group; either way the recorded
    probabilities and the final state are on the full basis, and
    orbit-mates carry equal amplitudes.  Norm drift and finiteness are
    checked on the state that is stepped, whose norm is that of the full
    state.  The run goes a block of steps at a time, with one ``weights``
    call on the block's step grid (``EvolutionParams.step_grid``, whose end
    times date every snapshot and abort, the run's last at ``total_time``
    exactly): a block is ``stack_length(m)`` steps for the midpoint
    exponential (m the sector dimension), one stacked ``eigh`` and one
    ``exp`` each, and ``split_block_length(m * r)`` steps of the r Strang
    runs stepped together.  Their norms are checked at the end of each
    block, and a block that fails half the drift limit is replayed with the
    check after every step (see the module docstring), so a run aborts at
    the same step whatever the block length; a non-finite schedule weight
    raises ``ValueError`` when its block is due.  RK4 computes its stage
    weights for the whole run before the first step, and refuses a step
    outside the stability interval of the full H(s), which bounds the
    sector's, with :class:`EvolutionAborted`; it steps in blocks of
    ``stack_length(m)`` and checks the norm after every step.

    ``Integrator.SPLIT`` picks the propagator (see the module docstring);
    the returned trace's ``params`` are those of the run that made it, so
    they name the integrator and step that actually ran.  Logs the basis and
    sector dimensions, the group order and the block length of every run,
    every block replay and the split check's outcome, at DEBUG level.
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
        fine, disagreement = _strang_runs(family, init, sector, params)
    except (EvolutionAborted, ValueError) as err:
        # the midpoint run below raises its own error, at its own step
        outcome, disagreement = f"split failed ({err})", math.inf
    else:
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


def _aborted(drift: float, t: float, run: EvolutionParams) -> EvolutionAborted:
    """The abort of ``run`` when its norm is off 1 by ``drift`` at time
    ``t``; a Strang run's names the run."""
    step = run.step
    reason = (
        f"norm drift {drift:.3e} at t={t} exceeds {NORM_DRIFT_LIMIT}; "
        f"retry with a smaller step, e.g. {step / 2}"
        if math.isfinite(drift)
        else f"non-finite amplitudes at t={t}; reduce the step size (currently {step})"
    )
    name = f"Strang run at step {step}: " if run.integrator is Integrator.SPLIT else ""
    return EvolutionAborted(name + reason)


class _Recording:
    """The snapshots of one run on its ``record_grid``: kept in the orbit
    basis, and expanded onto the full basis in one call by :meth:`trace`."""

    def __init__(self, sector: SymmetricSector, params: EvolutionParams):
        n_steps = params.step_count()
        # more than n_steps + 1 points are spaced under 1 and round to every step
        grid = np.linspace(0, n_steps, min(params.record_grid, n_steps + 1))
        # the step counts after which a snapshot is taken, in order
        self.after = sorted(set(int(round(x)) for x in grid))
        self.sector = sector
        self.params = params
        self.times: list[float] = []
        self.states: list[np.ndarray] = []
        self.norm_errors: list[float] = []

    def cuts(self, first: int, stop: int) -> list[int]:
        """The step counts k with first < k <= stop after which a snapshot
        is taken: those met while steps ``first`` to ``stop - 1`` are taken."""
        after = self.after
        return after[bisect_right(after, first) : bisect_right(after, stop)]

    def take(self, t: float, coordinates: np.ndarray) -> None:
        """Record the state at ``t`` from its orbit-basis ``coordinates``; a
        pending problem half phase is diagonal and leaves these exact."""
        self.times.append(t)
        self.states.append(coordinates.copy())
        self.norm_errors.append(abs(float(np.linalg.norm(coordinates)) - 1.0))

    def trace(self, family: AdiabaticFamily, coordinates: np.ndarray) -> EvolutionTrace:
        """The trace of the run whose final orbit-basis state is
        ``coordinates``."""
        full = self.sector.expand(np.array(self.states))
        return EvolutionTrace(
            times=np.array(self.times),
            probabilities=full.real**2 + full.imag**2,
            norm_errors=np.array(self.norm_errors),
            final_state=StateVector(family.basis, self.sector.expand(coordinates)),
            params=self.params,
        )


def _first_off(pairs: np.ndarray, limit: float) -> tuple[int, float] | None:
    """The first complex column of ``pairs``, their (m, 2r) real view,
    whose norm is non-finite or off 1 by more than ``limit``, with its
    drift |norm - 1|; None if there is none.  A column's norm is one dot
    product of its 2m floats, in the order of a lone column's buffer, and a
    NaN or infinite amplitude makes it non-finite."""
    for r in range(pairs.shape[1] // 2):
        column = pairs[:, 2 * r : 2 * r + 2].reshape(-1)
        drift = abs(math.sqrt(column.dot(column)) - 1.0)
        if not drift <= limit:
            return r, drift
    return None


def _checked_block(
    advance: Callable[[int, int], None],
    columns: np.ndarray,
    first: int,
    ends: list[list[float]],
    runs: Sequence[EvolutionParams],
    recording: _Recording,
) -> None:
    """Take the block of steps ``first`` to ``first + n - 1`` (n =
    ``len(ends[0])``) of ``runs``, held as the columns of the contiguous
    (m, r) complex ``columns``, through ``advance(lo, hi)``, which applies
    the block's steps lo to hi - 1 in place; run r is at time ``ends[r][i]``
    after the block's step i.  The last run is recorded on ``recording``'s
    grid, the block being cut at its snapshots.

    The runs' steps are unitary up to rounding, so their norms are checked
    at the end of the block only.  A norm that is non-finite or off 1 by
    more than ``NORM_DRIFT_LIMIT / 2`` sends the block to a replay from its
    start, one step at a time with the check after every step: a step whose
    norm leaves the drift limit raises :class:`EvolutionAborted` naming the
    run's step (and the run, for a Strang run) and the time after the step.
    The replay is logged at DEBUG level.
    """
    pairs = columns.view(np.float64)
    start = columns.copy()
    stop = first + len(ends[0])
    taken = first
    for cut in recording.cuts(first, stop):
        advance(taken - first, cut - first)
        recording.take(ends[-1][cut - first - 1], columns[:, -1])
        taken = cut
    advance(taken - first, stop - first)
    flagged = _first_off(pairs, NORM_DRIFT_LIMIT / 2)
    if flagged is None:
        return
    # a step may have left the drift limit: replay the block from its start
    columns[...] = start
    for i in range(stop - first):
        advance(i, i + 1)
        if (failed := _first_off(pairs, NORM_DRIFT_LIMIT)) is not None:
            break
    r, drift = flagged if failed is None else failed
    replay = f"run at step {runs[r].step} replayed steps {first} to {stop - 1}"
    outcome = f"step {first + i} fails it" if failed else "no step fails the check"
    _debug(__name__, "evolve: %s one at a time; %s", replay, outcome)
    if failed is not None:
        raise _aborted(drift, ends[r][i], runs[r])


def _strang_runs(
    family: AdiabaticFamily,
    init: StateVector,
    sector: SymmetricSector,
    params: EvolutionParams,
) -> tuple[EvolutionTrace, float]:
    """The split check's Strang runs at h = ``params.step`` and at h/2 in
    ``sector``, which holds ``init``; returns the h/2 run's trace and the
    largest difference between the runs' final probabilities of a class of
    equal problem value.

    The runs are stepped together, as the columns of one (m, 2) complex
    state: iteration i applies step i of each run with one problem phase
    multiply, one product with W^T, one start phase multiply and one
    product with W.  After the h run's last step its column gets its
    closing half phase and is set aside, and the h/2 run goes on alone,
    recording on its grid throughout.  The norms are checked per block
    (``_checked_block``); a run whose norm leaves the drift limit raises
    :class:`EvolutionAborted` naming its run's step and the time.
    """
    runs = [params, replace(params, step=params.step / 2)]
    counts = [run.step_count() for run in runs]
    total_time = params.total_time
    m = sector.dimension
    start_energies, start_vectors = sector.start_eigensystem
    transposed = start_vectors.T
    values, classes = sector.problem_classes
    gather = np.concatenate([classes, len(values) + np.arange(m)])
    recording = _Recording(sector, runs[-1])
    _debug(
        __name__,
        "evolve: basis dimension %d, sector dimension %d, group order %d, "
        "block length %d; Strang runs at steps %r and %r stepped together, "
        "then the second alone in blocks of %d",
        family.dimension,
        m,
        sector.group_order,
        split_block_length(2 * m),
        runs[0].step,
        runs[1].step,
        split_block_length(m),
    )

    coordinates = sector.reduce(init.amplitudes)
    recording.take(0.0, coordinates)
    # column r is run r; a column leaves once its run has taken its last step
    columns = np.repeat(coordinates[:, None], len(runs), axis=1)
    # the problem half phase that closes each run's last step taken, as the
    # angle w_P h / 2: it is merged into the run's next opening half phase,
    # and its final state gets it after its last step
    pending = np.zeros(len(runs))
    finals = []
    first = 0
    for done, count in enumerate(counts):
        active = runs[done:]
        block = split_block_length(m * len(active))
        # ``columns`` is stepped in place: a real matrix multiplies it
        # through its real view ``pairs``, one (re, im) column pair per run;
        # ``rotated`` holds it in the eigenbasis of the start operator
        pairs = columns.view(np.float64)
        rotated = np.empty_like(pairs)
        rotated_columns = rotated.view(np.complex128)
        for block_first in range(first, count, block):
            block_stop = min(block_first + block, count)
            # one row per active run, one column per step of the block
            starts, sizes, ends = np.array(
                [run.step_grid(block_first, block_stop) for run in active]
            ).transpose(1, 0, 2)
            # as in ``_run``: no midpoint is negative, so the upper clamp
            # alone gives np.clip's bits
            midpoints = np.minimum((starts + 0.5 * sizes) / total_time, 1.0)
            weights = family.weights(midpoints.ravel()).reshape(*sizes.shape, 2)
            half = (0.5 * sizes) * weights[..., 1]
            opening = half + np.column_stack([pending, half[:, :-1]])
            pending = half[:, -1]
            # the opening problem phases, once per distinct problem value
            # (equal values give equal angles, bit for bit), and the start
            # phases, through one cos and one sin call; one gather puts them
            # onto the orbits and into the (m, r) layout of ``columns``,
            # problem phases in rows :m and start phases in rows m:
            angles = np.concatenate(
                [
                    -opening[..., None] * values,
                    (-sizes * weights[..., 0])[..., None] * start_energies,
                ],
                axis=-1,
            )
            stacked = _unit_phases(angles).transpose(1, 2, 0).take(gather, axis=1)

            def advance(lo: int, hi: int) -> None:
                for diagonal, phase in zip(stacked[lo:hi, :m], stacked[lo:hi, m:]):
                    np.multiply(diagonal, columns, columns)
                    transposed.dot(pairs, out=rotated)
                    np.multiply(phase, rotated_columns, rotated_columns)
                    start_vectors.dot(rotated, out=pairs)

            _checked_block(advance, columns, block_first, ends.tolist(), active, recording)
        closing = _unit_phases(-pending[0] * values).take(classes)
        finals.append(columns[:, 0] * closing)
        columns, pending, first = columns[:, 1:].copy(), pending[1:], count

    class_probabilities = []
    for final in finals:
        raw = final.real**2 + final.imag**2
        class_probabilities.append(np.bincount(classes, weights=raw) / raw.sum())
    coarse, fine = class_probabilities
    return recording.trace(family, finals[-1]), float(np.abs(coarse - fine).max())


def _run(
    family: AdiabaticFamily,
    init: StateVector,
    sector: SymmetricSector,
    params: EvolutionParams,
) -> EvolutionTrace:
    """One fixed-step run of RK4 or the midpoint exponential in ``sector``,
    which holds ``init``."""
    n_steps = params.step_count()
    total_time = params.total_time
    recording = _Recording(sector, params)
    use_rk4 = params.integrator is Integrator.RK4
    m = sector.dimension
    if use_rk4:
        # schedule weights at each step's start, midpoint and end, computed
        # (and checked finite) once, before the first step
        starts, sizes, _ = params.step_grid(0, n_steps)
        stage_weights = np.stack(
            [
                family.weights(np.clip(stage / total_time, 0.0, 1.0))
                for stage in (starts, starts + 0.5 * sizes, starts + sizes)
            ],
            axis=1,
        )
        _check_rk4_stable(family, params.step, stage_weights)
        initial, problem = sector.initial, sector.problem

        def derivative(weights: list[float], x: np.ndarray) -> np.ndarray:
            """d(psi)/dt = -i H psi for the schedule weights (w_I, w_P)."""
            wi, wp = weights
            problem_part = ((-1j * wp) * problem) * x
            return (-1j * wi) * matvec(initial, x) + problem_part

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

    # The state is one buffer of 2m floats, ``state``, stepped in place:
    # ``psi`` is its complex view, ``columns`` the same as one (m, 1) column
    # and ``pairs`` its (m, 2) real view, which a real matrix multiplies in
    # real arithmetic (as ``fock.matvec`` does).  ``rotated`` holds the
    # state in the eigenbasis of one step's H(s_mid).
    columns = sector.reduce(init.amplitudes).reshape(m, 1)
    psi = columns[:, 0]
    pairs = columns.view(np.float64)
    state = pairs.reshape(-1)
    rotated = np.empty((m, 2))
    rotated_psi = rotated.view(np.complex128).reshape(m)
    recording.take(0.0, psi)

    for first in range(0, n_steps, block):
        stop = min(first + block, n_steps)
        starts, sizes, ends = params.step_grid(first, stop)
        if use_rk4:
            # RK4's steps are not unitary: its norm is checked after each
            cuts = set(recording.cuts(first, stop))
            for j, end in zip(range(first, stop), ends.tolist()):
                h = float(sizes[j - first])
                w0, wm, w1 = stage_weights[j].tolist()
                k1 = derivative(w0, psi)
                k2 = derivative(wm, psi + (0.5 * h) * k1)
                k3 = derivative(wm, psi + (0.5 * h) * k2)
                k4 = derivative(w1, psi + h * k3)
                psi[:] = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                # the norm from the dot product of the 2m floats with themselves
                drift = abs(math.sqrt(state.dot(state)) - 1.0)
                if not drift <= NORM_DRIFT_LIMIT:
                    raise _aborted(drift, end, params)
                if j + 1 in cuts:
                    recording.take(end, psi)
            continue
        midpoints = (starts + 0.5 * sizes) / total_time
        # s = t / T clamped to [0, 1], as for the RK4 stages; no start is
        # negative, so the upper clamp alone gives the same bits and costs
        # a third of np.clip, once per block
        weights = family.weights(np.minimum(midpoints, 1.0))
        # the stack of H(s) is not kept past its eigensolve
        energies, vectors = np.linalg.eigh(family.path_arrays(weights, sector))
        phases = np.exp((-1j * sizes)[:, None] * energies)

        def advance(lo: int, hi: int) -> None:
            for phase, vector in zip(phases[lo:hi], vectors[lo:hi]):
                vector.T.dot(pairs, out=rotated)
                np.multiply(phase, rotated_psi, rotated_psi)
                vector.dot(rotated, out=pairs)

        _checked_block(advance, columns, first, [ends.tolist()], [params], recording)

    return recording.trace(family, psi)

