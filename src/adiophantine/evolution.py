"""Time integration of d(psi)/dt = -i H(t/T) psi and zero-step extrapolation.

Two independent fixed-step integrators ship so that each can validate the
other:

* ``RK4``: classic 4th-order Runge-Kutta on the linear flow.  Not unitary;
  the norm drift is reported as a diagnostic and large drift aborts the run
  with a step-size advisory.  No renormalization is applied.
* ``MIDPOINT_EXPONENTIAL``: per step applies exp(-i h H(s_mid)) through a
  dense eigendecomposition of the midpoint operator, so every step is
  exactly unitary and the global error is second order in the step.

The step size is fixed (no adaptive control) so that extrapolating the
recorded observable to zero step size stays well defined: runs at step
sizes in a fixed geometric ratio feed a Richardson extrapolation that also
estimates the observed convergence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .fock import StateVector
from .hamiltonians import AdiabaticFamily

__all__ = [
    "Integrator",
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


class Integrator(Enum):
    RK4 = "rk4"
    MIDPOINT_EXPONENTIAL = "midexp"


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
    """

    total_time: float
    step: float
    integrator: Integrator = Integrator.MIDPOINT_EXPONENTIAL
    record_grid: int = 101
    norm_drift_limit: float = 1e-3

    def __post_init__(self):
        if not self.total_time > 0:
            raise ValueError("total_time must be positive")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if self.step > self.total_time * (1 + 1e-12):
            raise ValueError("step must not exceed total_time")
        if self.record_grid < 2:
            raise ValueError("record_grid must be at least 2")

    def step_starts_and_sizes(self) -> tuple[list[float], list[float]]:
        full = int(math.floor(self.total_time / self.step + 1e-9))
        remainder = max(self.total_time - full * self.step, 0.0)
        starts = [j * self.step for j in range(full)]
        sizes = [self.step] * full
        if remainder > 1e-9 * self.step:
            starts.append(full * self.step)
            sizes.append(remainder)
        return starts, sizes


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


def _matvec_for(family: AdiabaticFamily) -> Callable[[float, np.ndarray], np.ndarray]:
    problem_diag = family.problem.diagonal
    if family.initial.is_diagonal:
        initial_diag = family.initial.diagonal

        def apply(s: float, psi: np.ndarray) -> np.ndarray:
            wi, wp = family.weights(s)
            return (wi * initial_diag + wp * problem_diag) * psi

    else:
        initial_matrix = family.initial.to_matrix()

        def apply(s: float, psi: np.ndarray) -> np.ndarray:
            wi, wp = family.weights(s)
            return wi * (initial_matrix @ psi) + wp * (problem_diag * psi)

    return apply


def evolve(
    family: AdiabaticFamily, init: StateVector, params: EvolutionParams
) -> EvolutionTrace:
    """Integrate from t = 0 to t = total_time with s = t / total_time.

    ``init`` must be normalized.
    """
    if init.basis != family.basis:
        raise ValueError("initial state does not live on the family's basis")
    if abs(init.norm() - 1.0) > NORM_TOLERANCE:
        raise ValueError(f"initial state norm {init.norm()} is not 1")

    starts, sizes = params.step_starts_and_sizes()
    n_steps = len(sizes)
    total_time = params.total_time
    record_after = set(
        int(round(x)) for x in np.linspace(0, n_steps, params.record_grid)
    )

    def s_of(t: float) -> float:
        return min(max(t / total_time, 0.0), 1.0)

    psi = init.amplitudes.copy()
    times: list[float] = []
    probabilities: list[np.ndarray] = []
    norm_errors: list[float] = []

    def snapshot(t: float) -> None:
        times.append(t)
        probabilities.append(psi.real**2 + psi.imag**2)
        norm_errors.append(abs(float(np.linalg.norm(psi)) - 1.0))

    if 0 in record_after:
        snapshot(0.0)

    use_rk4 = params.integrator is Integrator.RK4
    matvec = _matvec_for(family) if use_rk4 else None
    hamiltonian_at = None if use_rk4 else family.path_arrays()

    for j in range(n_steps):
        t = starts[j]
        h = sizes[j]
        t_end = total_time if j == n_steps - 1 else t + h
        if use_rk4:
            s0 = s_of(t)
            sm = s_of(t + 0.5 * h)
            s1 = s_of(t + h)
            k1 = -1j * matvec(s0, psi)
            k2 = -1j * matvec(sm, psi + (0.5 * h) * k1)
            k3 = -1j * matvec(sm, psi + (0.5 * h) * k2)
            k4 = -1j * matvec(s1, psi + h * k3)
            psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            generator = hamiltonian_at(s_of(t + 0.5 * h))
            if generator.ndim == 1:
                psi = np.exp(-1j * h * generator) * psi
            else:
                energies, vectors = np.linalg.eigh(generator)
                phases = np.exp(-1j * h * energies)
                psi = vectors @ (phases * (vectors.conj().T @ psi))

        norm = float(np.linalg.norm(psi))
        if not np.isfinite(norm) or not np.all(np.isfinite(psi)):
            raise EvolutionAborted(
                f"non-finite amplitudes at t={t_end}; reduce the step size "
                f"(currently {params.step})"
            )
        if abs(norm - 1.0) > params.norm_drift_limit:
            raise EvolutionAborted(
                f"norm drift {abs(norm - 1.0):.3e} at t={t_end} exceeds "
                f"{params.norm_drift_limit}; retry with a smaller step, e.g. "
                f"{params.step / 2}"
            )
        if (j + 1) in record_after:
            snapshot(t_end)

    return EvolutionTrace(
        times=np.array(times),
        probabilities=np.array(probabilities),
        norm_errors=np.array(norm_errors),
        final_state=StateVector(family.basis, psi),
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

    ``steps`` must hold at least three sizes in a fixed geometric ratio,
    largest first (for example h, h/2, h/4).  The tracked observable is the
    normalized probability of one basis index in the final state.
    """
    sizes = [float(h) for h in steps]
    if len(sizes) < 3:
        raise ExtrapolationError("need at least three step sizes")
    if any(b >= a for a, b in zip(sizes, sizes[1:])):
        raise ExtrapolationError("step sizes must be strictly decreasing")
    ratio = sizes[1] / sizes[0]
    for a, b in zip(sizes, sizes[1:]):
        if abs(b / a - ratio) > 1e-9:
            raise ExtrapolationError(
                f"step sizes must form a geometric sequence, got {sizes}"
            )
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
