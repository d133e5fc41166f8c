"""Time integration of d(psi)/dt = -i H(t/T) psi.

Four fixed-step integrators ship.  RK4 and the midpoint exponential are
independent of each other, so that each can validate the other; the split
integrator is the production path: the Strang step, checked at run time,
and CF4 below a sector dimension and where the check is refused twice.
The midpoint exponential runs only on request:

* ``RK4``: classic 4th-order Runge-Kutta on the linear flow.  Not unitary;
  the norm drift is reported as a diagnostic and large drift aborts the run
  with a step-size advisory.  No renormalization is applied.  A step outside
  RK4's stability interval on the imaginary axis is refused before the run.
* ``MIDPOINT_EXPONENTIAL``: per step applies exp(-i h H(s_mid)) through a
  dense eigendecomposition of the midpoint operator, so every step is
  exactly unitary and the global error is second order in the step.  The
  run goes a block of steps at a time: the schedule is evaluated once per
  block, on the array of its midpoints, and the midpoint operators are
  diagonalized in one ``eigh`` call on the block's stack of matrices,
  because a lone eigensolve of a small matrix costs mostly numpy's fixed
  per-call overhead.  The state is still propagated step by step, and each
  step's result is bitwise that of an eigensolve of its own.
* ``CF4``: the fourth-order commutator-free Magnus step of Blanes & Moan
  (Appl. Numer. Math. 56:1519, 2006; in the form of Alvermann & Fehske,
  J. Comput. Phys. 230:5930, 2011),
  exp(-i h (a1 H(t1) + a2 H(t2))) exp(-i h (a2 H(t1) + a1 H(t2))),
  with the Gauss nodes t1,2 = t + (1/2 -+ sqrt(3)/6) h and a1,2 = 1/4 -+
  sqrt(3)/6, the right factor applied first.  H(s) = w_I H_I + w_P H_P,
  so each factor is H on one combined weight row, and CF4 is the midpoint
  exponential's block loop with two weight rows per step: the same
  stacked real ``eigh`` (of half as many steps, so a stack holds as many
  matrices), the same phases and the same three calls per exponential.
  Every step is exactly unitary and the global error is fourth order.  The
  midpoint exponential is its one-row case, and stays bitwise what it was.
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
  orbits.  A block of steps gets its phases in one pass, written into one
  table that the check allocates once and every block reuses, since a
  Strang step at m = 21 to 75 costs mostly numpy's fixed cost per call and
  per block.  Its error depends on the commutator of H_I and H_P, which
  no a-priori bound separates from the stiff failures (McLachlan & Quispel,
  "Splitting methods", Acta Numerica 11, 2002), so the result is checked a
  posteriori: a Strang run at h and one at h/2 must give every class of
  equal problem value the same final probability within
  ``SPLIT_TOLERANCE`` = 1e-3, and the h/2 run is then returned.  A refused
  check (a larger disagreement, or a Strang run that aborts) is retried
  once at h/2, with runs at h/2 and h/4, whose h/4 run is returned if they
  agree; a second refusal, or a non-finite schedule weight, runs CF4 at h.
  On rungs refused twice, CF4 at 4h was off a fine reference by up to
  4.3e-3 in a class probability, CF4 at h by at most 3.3e-4.
  The two runs of a check are stepped in one loop, as the two columns of
  one (m, 2) complex state: iteration i applies step i of both with the
  four calls one run's step makes.  After the coarser run's last step its
  column leaves, to get its closing half phase, and the finer run goes on
  alone, so N steps of h cost 2N iterations rather than 3N.  On the
  decision rungs of the 21 bench equations and of ``x + y - 20`` and
  ``x^2 + y^2 - 25`` at cutoff 8, the accepted checks disagreed by at most
  7.8e-4 and the three refused ones (stiff rungs of ``x^2 + y^2 - 25`` at
  T = 80, 160 and 320) by at least 2.9e-3; their retries agreed within
  6.4e-5.  Split runs at sector dimension m >= ``SPLIT_MIN_DIMENSION`` =
  12.  Smaller sectors get CF4, at ``CF4_STEP_MULTIPLE`` = 4 times the step
  but never at more than the spacing of the run's record grid unless that
  is below the step, so a decide rung steps at 4h and no trace is coarser
  than the midpoint run at h would record it.  A Strang step is cheaper
  than a midpoint step there, but a finer Strang step does not rescue the
  checks that fail; CF4 at 4h makes half the midpoint run's eigensolves
  and checks nothing (README "The split integrator" has the costs).  On
  the 13 one-mode bench equations it kept every schedule, verdict, witness
  and class value of the midpoint exponential at h, and moved the class
  probabilities by at most 8.7e-4.

H(s) is real symmetric, so its eigensolves run in real arithmetic.  The
state stays complex, in one buffer that a step updates in place: a real
matrix multiplies it through its (m, 2) real view (as ``fock.matvec``
does), because numpy would otherwise cast the whole matrix to complex on
every product.  Every phase e^{i angle} that a step multiplies by (the
midpoint exponential's and CF4's, the Strang problem and start phases and
their closing half phases) comes from one function, ``_unit_phases``, as
(u - 1) + i t u with t = tan(angle / 2) and u = 2 / (1 + t^2), computed
in place in the caller's scratch array of angles: numpy's ``tan`` is
vectorized on a contiguous array where its ``cos`` and ``sin`` are not,
and at m = 21 the phases of a split check iteration went from 583 to
319 ns with it (README "The split integrator").

Every integrator runs through one block driver, ``_propagate``: it holds
the runs as the columns of one (m, r) state, builds each block's step
grid and midpoints, records the snapshots and checks the norms, and an
integrator supplies only the preparation of a block's steps and the bytes
that one step of one run adds to a block.  A block holds as many steps as
fill ``hamiltonians.BLOCK_BYTES`` = 256 KiB (``block_length``): 16 m^2
bytes per exponential for the midpoint exponential and CF4 (the stacked
H(s) and its eigenvectors), 101 CF4 steps at m = 9 and 8 midpoint steps at
m = 45; 32 m bytes per Strang run (its two rows of complex phases), 195
iterations of both runs at m = 21 and 390 of one alone; and for RK4, which
stacks nothing, only the 32 bytes of its step grid, 8192 steps.  A run's
norm check is one dot product of its 2m floats (a Strang run's copied out
of the two-column state while both step).  The driver applies a block's
steps with no check and checks each run's norm at the block's end: a norm
that is non-finite or off 1 by more than half the drift limit sends the
block to a replay from a copy of its start, one step at a time with the
check after every step.  A NaN or infinite amplitude survives every later
step, and no run's drift comes back under half the limit after passing
the limit within a block: midpoint and Strang steps are unitary up to
rounding, so their norms move far less than half the limit within a
block, and RK4's step is held to its stability interval, where |R(ix)|
<= 1 for each frozen H(s), so its drift only grows.  The replay thus stops
every step a per-step check stops, with the same error at the same time,
whatever the block length.  Schedules follow the array contract of
``hamiltonians.Schedule``.  Step grids are built per block from the step
index (``EvolutionParams.step_grid``), never for a whole run; a grid gives
each step's end time, the run's last being ``total_time`` exactly, so
every run records and aborts at the same times.

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
from .hamiltonians import AdiabaticFamily, SymmetricSector, _debug, block_length

__all__ = [
    "Integrator",
    "SPLIT_MIN_DIMENSION",
    "CF4_STEP_MULTIPLE",
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
# run CF4 although a Strang step is cheaper there, because the checks that
# fail there pay for the Strang runs and then a full run: at 1 the
# decide-1mode p90 latency doubled (README "The split integrator")
SPLIT_MIN_DIMENSION = 12

# below SPLIT_MIN_DIMENSION the split runs CF4 at this multiple of its step
# (capped so that no trace is recorded coarser than the midpoint run at the
# step would record it): a CF4 step makes two eigensolves, so at 4h it makes
# half the midpoint exponential's at h, with comparable error (README "The
# split integrator")
CF4_STEP_MULTIPLE = 4

# largest difference of any class probability between the Strang runs at h
# and h/2 for which the h/2 run is returned (and those at h/2 and h/4 of
# the retry)
SPLIT_TOLERANCE = 1e-3


# CF4 (Blanes & Moan 2006): the Gauss nodes of a step, as fractions of it,
# and the weights of H at those nodes in each of its two exponentials, in the
# order they are applied: a2 H(t1) + a1 H(t2) first, a1,2 = 1/4 -+ sqrt(3)/6
_GAUSS_NODES = 0.5 + np.array([-1.0, 1.0]) * (math.sqrt(3.0) / 6.0)
_CF4_EXPONENTS = 0.25 + np.array([[1.0, -1.0], [-1.0, 1.0]]) * (math.sqrt(3.0) / 6.0)


class Integrator(Enum):
    RK4 = "rk4"
    MIDPOINT_EXPONENTIAL = "midexp"
    SPLIT = "split"
    CF4 = "cf4"


class EvolutionAborted(RuntimeError):
    """Integration stopped: non-finite amplitudes or excessive norm drift."""


@dataclass(frozen=True)
class EvolutionParams:
    """Fixed-step run description.

    ``total_time / step`` full steps are taken (rounded down, with a
    floating slack of one part in 1e9) and any remainder is covered by one
    exact final partial step, so the run ends at ``total_time`` exactly.
    A non-finite ``total_time`` is refused, and so is a step count
    ``total_time / step`` of 2^63 or more: a float below 2^63 is at most
    2^63 - 1024, so the full steps and a partial one index in int64.
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
        if not self.total_time / self.step < 2.0**63:
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


def _unit_phases(angles: np.ndarray, phases: np.ndarray | None = None) -> np.ndarray:
    """e^{i angles} for the real float64 array ``angles``, which it
    overwrites: from the half-angle tangent t = tan(angle / 2),
    e^{i angle} = (u - 1) + i t u with u = 2 / (1 + t^2).

    numpy's ``tan`` is vectorized on a contiguous array where its ``cos``
    and ``sin`` run scalar libm, slowest on large angles, and it reduces its
    own argument, so no angle is reduced here: a reduction by hand in turns
    makes every angle beyond 2^52 turns the phase 1.  Off numpy's complex exp by a few
    ulp, and |e^{i angle}| off 1 by as little; a non-finite angle gives a
    non-finite phase.  t and u are computed in place in ``angles``, whose
    caller owns it as scratch (a strided tan or divide costs two to three
    times a contiguous one), and only t and the two results are written to
    ``phases``, a complex array of the shape of ``angles`` (a strided view
    will do) allocated when it is not given; nothing else is allocated."""
    if phases is None:
        phases = np.empty(angles.shape, dtype=np.complex128)
    cosine, sine = phases.real, phases.imag
    np.multiply(angles, 0.5, out=angles)
    np.tan(angles, out=angles)
    sine[...] = angles
    np.multiply(angles, angles, out=angles)
    angles += 1.0
    np.divide(2.0, angles, out=angles)
    sine *= angles
    np.subtract(angles, 1.0, out=cosine)
    return phases


def _check_rk4_stable(
    family: AdiabaticFamily, step: float, stage_weights: np.ndarray
) -> None:
    """Refuse an RK4 run whose step leaves the stability interval of H(s).

    ||H(s)|| <= |w_I(s)| ||H_I|| + |w_P(s)| max H_P at each stage point of
    the run; for a convex schedule this is max(||H_I||, max H_P).  ||H_I||
    is bounded from the factors alone, by the sum over the modes of each
    factor's largest absolute row sum: that is never below the largest
    absolute row sum of the Kronecker sum, and equals it when every
    factor's diagonal is non-negative, as a ``start_factors`` factor's is.
    No d x d array is formed.
    """
    initial_norm = float(sum(np.abs(f).sum(axis=1).max() for f in family.factors))
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
    exactly): a block is ``block_length(16 m^2)`` steps for the midpoint
    exponential (m the sector dimension) and half as many for CF4, one
    stacked ``eigh`` and one phase evaluation each, and
    ``block_length(32 m r)`` steps of the r Strang runs stepped together,
    whose phases fill one table reused by every block.  Their norms are
    checked at the end of each block, and a block that fails half the drift
    limit is replayed with the check after every step (see the module
    docstring), so a run aborts at the same step whatever the block length;
    a non-finite schedule weight raises ``ValueError`` when its block is
    due.  RK4 computes its stage weights for the whole run before the first
    step, and refuses a step outside the stability interval of the full
    H(s), which bounds the sector's, with :class:`EvolutionAborted`; it
    steps in blocks of ``block_length(32)`` steps, checked and replayed as
    the others'.

    ``Integrator.SPLIT`` picks the propagator (see the module docstring):
    below ``SPLIT_MIN_DIMENSION`` CF4; else the Strang check at h and h/2,
    retried once at h/2 and h/4 when it is refused, and CF4 at h when the
    retry is refused too or a Strang run meets a non-finite schedule
    weight.  The returned trace's ``params`` are those of the run that made
    it, so they name the integrator and step that actually ran (SPLIT at
    h/2 or h/4, or CF4 and its step).  Logs the basis and sector
    dimensions, the group order and the block length of every run, every
    block replay, each split check's outcome and what it leads to, and a
    CF4 run's step in place of a check, at DEBUG level.
    """
    if init.basis != family.basis:
        raise ValueError("initial state does not live on the family's basis")
    if abs(init.norm() - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"initial state norm {init.norm()} is not 1")
    sector = family.sector_for(init)
    if params.integrator is not Integrator.SPLIT:
        return _run(family, init, sector, params)

    if sector.dimension < SPLIT_MIN_DIMENSION:
        spacing = params.total_time / (params.record_grid - 1)
        step = min(CF4_STEP_MULTIPLE * params.step, max(params.step, spacing))
        message = "evolve: sector dimension %d is below %d; CF4 runs at step %r"
        details = [sector.dimension, SPLIT_MIN_DIMENSION, step, params.step]
        _debug(__name__, message + " for the split at %r", *details)
        return _run(family, init, sector, replace(params, integrator=Integrator.CF4, step=step))
    # a refused check is retried once at half the step; CF4 runs at h when
    # that is refused too, or at once when a Strang run meets a non-finite
    # schedule weight, which no step mends (CF4 raises its own error)
    fallback = f"returning the CF4 run at step {params.step!r}"
    for step, choice in [(params.step, "retrying at the half step"), (params.step / 2, fallback)]:
        try:
            fine, disagreement = _strang_runs(family, init, sector, replace(params, step=step))
        except (EvolutionAborted, ValueError) as err:
            outcome, disagreement = f"split failed ({err})", math.inf
            choice = fallback if isinstance(err, ValueError) else choice
        else:
            outcome = f"class disagreement {disagreement:.3e}"
        accepted = disagreement <= SPLIT_TOLERANCE
        if accepted:
            choice = "returning the Strang run at the half step"
        message = "evolve split: %s between steps %r and %r, tolerance %r; %s"
        _debug(__name__, message, outcome, step, step / 2, SPLIT_TOLERANCE, choice)
        if accepted or choice == fallback:
            break
    if accepted:
        return fine
    return _run(family, init, sector, replace(params, integrator=Integrator.CF4))


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


def _propagate(
    family: AdiabaticFamily,
    init: StateVector,
    sector: SymmetricSector,
    runs: Sequence[EvolutionParams],
    step_bytes: int,
    prepare: Callable[[np.ndarray, int, np.ndarray, np.ndarray], Callable],
    nodes: Sequence[float] = (0.5,),
) -> tuple[_Recording, list[np.ndarray]]:
    """Step ``runs``, of one total time and of step counts in increasing
    order, from ``init`` in ``sector``, which holds it; returns the last
    run's recording and each run's final orbit-basis state.

    The runs are the columns of one contiguous (m, r) complex state, stepped
    together a block of ``block_length(step_bytes * r)`` steps at a time,
    ``step_bytes`` being what one step of one run adds to a block and r the
    number of runs still stepping; a run's column leaves once its run has
    taken its last step.  Per block, ``prepare(columns, first, sizes,
    points)`` gets the state, the block's first step index, the (r, n) step
    sizes and the (r, n, q) schedule points s = t / T at the q fractions ``nodes`` of each
    step (its midpoint by default), clamped to [0, 1]; it returns
    ``advance(lo, hi)``, which applies the block's steps lo to hi - 1 to
    ``columns`` in place.  The last run is recorded on its
    ``record_grid``, a block being cut at its snapshots.

    The runs' norms are checked at the end of each block only.  A norm that
    is non-finite or off 1 by more than ``NORM_DRIFT_LIMIT / 2`` sends the
    block to a replay from its start, one step at a time with the check
    after every step: a step whose norm leaves the drift limit raises
    :class:`EvolutionAborted` naming the run's step (and the run, for a
    Strang run) and the time after the step.  The replay is logged at DEBUG
    level, as is the run's shape.
    """
    message = (
        "evolve: basis dimension %d, sector dimension %d, group order %d, "
        "block length %d"
    )
    details = [family.dimension, sector.dimension, sector.group_order]
    details.append(block_length(step_bytes * len(runs)))
    if len(runs) > 1:
        message += "; Strang runs at steps %r and %r stepped together, then the"
        message += " second alone in blocks of %d"
        details += [runs[0].step, runs[1].step, block_length(step_bytes)]
    _debug(__name__, message, *details)

    recording = _Recording(sector, runs[-1])
    coordinates = sector.reduce(init.amplitudes)
    recording.take(0.0, coordinates)
    columns = np.repeat(coordinates[:, None], len(runs), axis=1)
    # the active runs resume at step ``resume``: the last one taken by the
    # run that left
    finals, resume = [], 0
    for done, count in enumerate([run.step_count() for run in runs]):
        active = runs[done:]
        pairs = columns.view(np.float64)
        block = block_length(step_bytes * len(active))
        for first in range(resume, count, block):
            stop = min(first + block, count)
            # one row per active run, one column per step of the block
            starts, sizes, ends = np.array(
                [run.step_grid(first, stop) for run in active]
            ).transpose(1, 0, 2)
            # no node is negative, so the upper clamp alone gives the bits
            # of np.clip and costs a third of it, once per block
            points = starts[..., None] + np.multiply(nodes, sizes[..., None])
            points /= runs[0].total_time
            advance = prepare(columns, first, sizes, np.minimum(points, 1.0))
            ends, start, taken = ends.tolist(), columns.copy(), first
            for cut in recording.cuts(first, stop):
                advance(taken - first, cut - first)
                recording.take(ends[-1][cut - first - 1], columns[:, -1])
                taken = cut
            advance(taken - first, stop - first)
            if (flagged := _first_off(pairs, NORM_DRIFT_LIMIT / 2)) is None:
                continue
            # a step may have left the drift limit: replay the block from its start
            columns[...] = start
            for i in range(stop - first):
                advance(i, i + 1)
                if (failed := _first_off(pairs, NORM_DRIFT_LIMIT)) is not None:
                    break
            r, drift = flagged if failed is None else failed
            _debug(
                __name__,
                "evolve: run at step %s replayed steps %d to %d one at a time; %s",
                active[r].step,
                first,
                stop - 1,
                f"step {first + i} fails it" if failed else "no step fails the check",
            )
            if failed is not None:
                raise _aborted(drift, ends[r][i], active[r])
        finals.append(columns[:, 0])
        columns, resume = columns[:, 1:].copy(), count
    return recording, finals


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

    The runs are stepped together (``_propagate``): iteration i applies step
    i of each run with one problem phase multiply, one product with W^T, one
    start phase multiply and one product with W.  After the h run's last
    step its column is set aside, and the h/2 run goes on alone; each final
    state then gets its closing half phase.
    """
    runs = [params, replace(params, step=params.step / 2)]
    m = sector.dimension
    start_energies, start_vectors = sector.start_eigensystem
    values, classes = sector.problem_classes
    # the problem half phase that closes each run's last step taken, as the
    # angle w_P h / 2: it is merged into the run's next opening half phase,
    # and its final state gets it after its last step
    pending = np.zeros(len(runs))
    # One phase table serves every block.  Its rows are steps, each row an
    # (m, r) array in the layout of ``columns`` for the r runs stepping; a
    # block fills the first rows, and a replay reads them before the next
    # block overwrites them, and a step adds 32 m r bytes to it.  The
    # problem phases of the distinct values are evaluated in the start phase
    # table and gathered onto the orbits before the start phases overwrite
    # them.  The angles of each are written into one scratch table, which
    # ``_unit_phases`` consumes.
    capacity = max(r * block_length(32 * m * r) for r in (1, len(runs)))
    problem_table = np.empty(capacity * m, dtype=np.complex128)
    start_table = np.empty(capacity * m, dtype=np.complex128)
    angle_table = np.empty(capacity * m)
    layouts = {}
    multiply = np.multiply
    to_eigenbasis, from_eigenbasis = start_vectors.T.dot, start_vectors.dot

    def prepare(columns, first, sizes, midpoints):
        r, n = sizes.shape
        if r not in layouts:
            rows = capacity // r
            problem = problem_table[: rows * m * r].reshape(rows, m, r)
            start = start_table[: rows * m * r].reshape(rows, m, r)
            # every step's two phase views, once for all blocks of r runs
            layouts.clear()
            layouts[r] = problem, start, list(zip(problem, start))
        problem, start, steps = layouts[r]
        # the pending half phases of the runs still stepping, the last ones
        closing = pending[len(runs) - r :]
        weights = family.weights(midpoints.ravel()).reshape(r, n, 2)
        half = (0.5 * sizes) * weights[..., 1]
        opening = half + np.column_stack([closing, half[:, :-1]])
        closing[:] = half[:, -1]
        # the opening problem phases, once per distinct problem value (equal
        # values give equal angles, bit for bit), gathered onto the orbits;
        # mode="clip" writes straight into the table, where "raise" buffers.
        # The angles are multiplied one run at a time, so that numpy's inner
        # loop runs along the values and not along the r runs
        angles = angle_table[: n * len(values) * r].reshape(n, len(values), r)
        for j in range(r):
            np.multiply(-opening[j, :, None], values, out=angles[..., j])
        distinct = _unit_phases(angles, start_table[: angles.size].reshape(angles.shape))
        np.take(distinct, classes, axis=1, out=problem[:n], mode="clip")
        angles = angle_table[: n * m * r].reshape(n, m, r)
        for j in range(r):
            np.multiply(
                (-sizes[j] * weights[j, :, 0])[:, None], start_energies, out=angles[..., j]
            )
        _unit_phases(angles, start[:n])
        # ``columns`` is stepped in place: a real matrix multiplies it
        # through its real view ``pairs``, one (re, im) column pair per run;
        # ``rotated`` holds it in the eigenbasis of the start operator
        pairs = columns.view(np.float64)
        rotated = np.empty_like(pairs)
        rotated_columns = rotated.view(np.complex128)

        def advance(lo: int, hi: int) -> None:
            for diagonal, phase in steps[lo:hi]:
                multiply(diagonal, columns, columns)
                to_eigenbasis(pairs, rotated)
                multiply(phase, rotated_columns, rotated_columns)
                from_eigenbasis(rotated, pairs)

        return advance

    recording, finals = _propagate(family, init, sector, runs, 32 * m, prepare)
    class_probabilities = []
    for i, angle in enumerate(pending):
        # each run's final state gets its closing problem half phase
        finals[i] = final = finals[i] * _unit_phases(-angle * values).take(classes)
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
    """One fixed-step run of RK4, the midpoint exponential or CF4 in
    ``sector``, which holds ``init``, stepped by ``_propagate`` in blocks of
    ``block_length(16 m^2)`` steps, half as many for CF4, and of
    ``block_length(32)`` for RK4, which adds only its step grid to a block."""
    m = sector.dimension
    # a step's exponentials, each a row of weights on H at the step's nodes
    nodes, exponents = (0.5,), [[1.0]]
    if params.integrator is Integrator.CF4:
        nodes, exponents = _GAUSS_NODES, _CF4_EXPONENTS
    count = len(exponents)
    if params.integrator is Integrator.RK4:
        # schedule weights at each step's start, midpoint and end, computed
        # (and checked finite) once, before the first step
        starts, sizes, _ = params.step_grid(0, params.step_count())
        stage_weights = np.stack(
            [
                family.weights(np.clip(stage / params.total_time, 0.0, 1.0))
                for stage in (starts, starts + 0.5 * sizes, starts + sizes)
            ],
            axis=1,
        )
        _check_rk4_stable(family, params.step, stage_weights)
        initial, problem = sector.initial, sector.problem
        # a step adds only the driver's grid floats to a block: its start,
        # size, end and midpoint
        step_bytes = 32

        def derivative(weights: list[float], x: np.ndarray) -> np.ndarray:
            """d(psi)/dt = -i H psi for the schedule weights (w_I, w_P)."""
            wi, wp = weights
            problem_part = ((-1j * wp) * problem) * x
            return (-1j * wi) * matvec(initial, x) + problem_part

        def prepare(columns, first, sizes, midpoints):
            psi = columns[:, 0]

            def advance(lo: int, hi: int) -> None:
                for j in range(lo, hi):
                    h = float(sizes[0, j])
                    w0, wm, w1 = stage_weights[first + j].tolist()
                    k1 = derivative(w0, psi)
                    k2 = derivative(wm, psi + (0.5 * h) * k1)
                    k3 = derivative(wm, psi + (0.5 * h) * k2)
                    k4 = derivative(w1, psi + h * k3)
                    psi[:] = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            return advance

    else:
        # a step adds, per exponential, an m x m H(s) and its eigenvectors
        step_bytes = 16 * m * m * count
        # ``rotated`` holds the state in the eigenbasis of one step's H(s_mid)
        rotated = np.empty((m, 2))
        rotated_psi = rotated.view(np.complex128).reshape(m)

        def prepare(columns, first, sizes, points):
            pairs = columns.view(np.float64)
            weights = family.weights(points[0].ravel())
            if count > 1:
                # CF4: each exponential's combined (w_I, w_P) row, in the
                # order applied; the midpoint row is used as is, bit for bit
                weights = (exponents @ weights.reshape(-1, len(nodes), 2)).reshape(-1, 2)
            # the stack of H(s) is not kept past its eigensolve
            energies, vectors = np.linalg.eigh(family.path_arrays(weights, sector))
            phases = _unit_phases((-sizes[0].repeat(count))[:, None] * energies)

            def advance(lo: int, hi: int) -> None:
                lo, hi = lo * count, hi * count
                for phase, vector in zip(phases[lo:hi], vectors[lo:hi]):
                    vector.T.dot(pairs, out=rotated)
                    np.multiply(phase, rotated_psi, rotated_psi)
                    vector.dot(rotated, out=pairs)

            return advance

    recording, (final,) = _propagate(
        family, init, sector, [params], step_bytes, prepare, nodes
    )
    return recording.trace(family, final)
