"""Problem and start Hamiltonians, their interpolation, and spectra.

The problem Hamiltonian is diagonal: its entry at occupation tuple n is the
squared equation value D(n)^2, so it is non-negative (bounded from below)
and its ground level over the truncated box equals the classical
``min_over_box`` oracle exactly.  The start Hamiltonian
``sum_i (a_i^† - conj(alpha_i)) (a_i - alpha_i)`` has the (truncated)
coherent state as its easily prepared ground state.  The two are joined by
a convex interpolation whose spectrum is scanned on an s-grid to witness
the absence of level crossings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .diophantine import Polynomial, evaluate
from .fock import (
    FockBasis,
    HermitianOperator,
    StateVector,
    as_mode_alphas,
    coherent_state,
    ladder,
    number_operator,
)

__all__ = [
    "DEFAULT_ALPHA",
    "ProblemScaleError",
    "problem_diagonal",
    "build_problem_hamiltonian",
    "build_initial_hamiltonian",
    "linear_schedule",
    "smoothstep_schedule",
    "AdiabaticFamily",
    "SpectralProfile",
    "spectral_profile",
]

# Nonzero displacement keeps the start ground state nondegenerate and
# overlapping every occupation sector; magnitude well inside typical cutoffs.
DEFAULT_ALPHA = complex(2**-0.5)

DEFAULT_GAP_TOL = 1e-9

Schedule = Callable[[float], tuple[float, float]]


class ProblemScaleError(OverflowError):
    """Squared equation values exceed the signed 64-bit range on the box."""


def problem_diagonal(p: Polynomial, basis: FockBasis) -> tuple[int, ...]:
    """Exact integer diagonal D(n)^2 in basis order."""
    if p.num_vars != basis.num_modes:
        raise ValueError(
            f"polynomial has {p.num_vars} variables but basis has "
            f"{basis.num_modes} modes"
        )
    values = []
    for occupation in basis.occupations().tolist():
        d = evaluate(p, occupation)
        squared = d * d
        if squared >= 2**63:
            raise ProblemScaleError(
                f"squared value {squared} at {tuple(occupation)} exceeds 64-bit range"
            )
        values.append(squared)
    return tuple(values)


def build_problem_hamiltonian(p: Polynomial, basis: FockBasis) -> HermitianOperator:
    """Diagonal operator with entry D(n)^2 at occupation tuple n."""
    return HermitianOperator(
        basis, diagonal=np.array(problem_diagonal(p, basis), dtype=np.float64)
    )


def build_initial_hamiltonian(
    basis: FockBasis, alphas=DEFAULT_ALPHA
) -> tuple[HermitianOperator, StateVector]:
    """Start Hamiltonian plus its nominal ground state.

    Returns ``sum_i (a_i^† - conj(alpha_i)) (a_i - alpha_i)`` and the
    truncated coherent state.  With all displacements zero this reduces to
    the diagonal sum of number operators with exact ground state |0..0>.
    The coherent state is the exact ground state only up to truncation; its
    energy expectation is tiny whenever the truncation-weight warning stays
    quiet.
    """
    alpha_list = as_mode_alphas(alphas, basis.num_modes)
    ground = coherent_state(basis, alpha_list)
    if all(a == 0 for a in alpha_list):
        diag = np.zeros(basis.dimension, dtype=np.float64)
        for mode in range(basis.num_modes):
            diag += number_operator(basis, mode).diagonal
        return HermitianOperator(basis, diagonal=diag), ground
    # Kronecker sum of the single-mode (a - alpha)^† (a - alpha)
    dim = basis.dimension
    total = np.zeros((dim, dim), dtype=np.complex128)
    eye = np.eye(basis.cutoff + 1, dtype=np.complex128)
    for mode, alpha in enumerate(alpha_list):
        shifted = ladder(basis.cutoff) - alpha * eye
        total += basis.on_mode(mode, shifted.conj().T @ shifted)
    total = 0.5 * (total + total.conj().T)
    return HermitianOperator(basis, matrix=total), ground


def linear_schedule(s: float) -> tuple[float, float]:
    return (1.0 - s, s)


def smoothstep_schedule(s: float) -> tuple[float, float]:
    """Monotone smooth-step deformation; endpoints match the linear path."""
    sigma = s * s * (3.0 - 2.0 * s)
    return (1.0 - sigma, sigma)


@dataclass(frozen=True, eq=False)
class AdiabaticFamily:
    """Convex path from the start operator to the diagonal problem operator.

    ``hamiltonian(0)`` is the start operator and ``hamiltonian(1)`` the
    problem operator exactly.  ``problem_values`` optionally carries the
    exact integer diagonal for downstream degeneracy grouping.
    """

    initial: HermitianOperator
    problem: HermitianOperator
    schedule: Schedule = linear_schedule
    problem_values: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.initial.basis != self.problem.basis:
            raise ValueError("start and problem operators live on different bases")
        if not self.problem.is_diagonal:
            raise ValueError("problem operator must be diagonal")
        if (
            self.problem_values is not None
            and len(self.problem_values) != self.problem.basis.dimension
        ):
            raise ValueError("problem_values length does not match the basis")

    @property
    def basis(self) -> FockBasis:
        return self.initial.basis

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def weights(self, s: float) -> tuple[float, float]:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"interpolation parameter {s} outside [0, 1]")
        w_initial, w_problem = self.schedule(s)
        if not (math.isfinite(w_initial) and math.isfinite(w_problem)):
            raise ValueError(
                f"schedule weights ({w_initial}, {w_problem}) at s={s} are not finite"
            )
        return w_initial, w_problem

    def path_arrays(self) -> Callable[[float], np.ndarray]:
        """H(s) on plain arrays, for loops that visit many values of s.

        The start and problem arrays are read out of the family once.  Each
        call returns the real diagonal of H(s) when the start operator is
        diagonal, else a fresh dense complex matrix.  Nothing is
        re-validated: both operators were validated when built, and
        ``weights`` rejects a non-finite schedule.
        """
        problem = self.problem.diagonal
        if self.initial.is_diagonal:
            initial, on_diagonal = self.initial.diagonal, ...
        else:
            indices = np.arange(self.dimension)
            initial, on_diagonal = self.initial.to_matrix(), (indices, indices)

        def at(s: float) -> np.ndarray:
            w_initial, w_problem = self.weights(s)
            h = w_initial * initial
            h[on_diagonal] += w_problem * problem
            return h

        return at

    def hamiltonian(self, s: float) -> HermitianOperator:
        h = self.path_arrays()(s)
        if self.initial.is_diagonal:
            return HermitianOperator(self.basis, diagonal=h)
        return HermitianOperator(self.basis, matrix=h)

    def exact_problem_values(self) -> np.ndarray:
        """Integer problem diagonal; reconstructed from floats if not stored."""
        if self.problem_values is not None:
            return np.array(self.problem_values, dtype=np.int64)
        return np.rint(self.problem.diagonal).astype(np.int64)

    def ground_class_indices(self) -> tuple[int, ...]:
        """Basis indices attaining the minimal problem value."""
        values = self.exact_problem_values()
        return tuple(int(i) for i in np.nonzero(values == values.min())[0])

    def ground_degeneracy(self) -> int:
        return len(self.ground_class_indices())

    @classmethod
    def from_polynomial(
        cls,
        p: Polynomial,
        basis: FockBasis,
        alphas=DEFAULT_ALPHA,
        schedule: Schedule = linear_schedule,
    ) -> tuple["AdiabaticFamily", StateVector]:
        """Build the full path for an equation; also returns the start state."""
        values = problem_diagonal(p, basis)
        problem = HermitianOperator(basis, diagonal=np.array(values, dtype=np.float64))
        initial, ground = build_initial_hamiltonian(basis, alphas)
        family = cls(
            initial=initial, problem=problem, schedule=schedule, problem_values=values
        )
        return family, ground


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Lowest levels of the interpolated operator along an s-grid.

    ``gaps`` is the plain first gap E_1 - E_0.  When the problem diagonal
    has a degenerate ground level that gap closes by construction at s = 1,
    so ``class_gaps`` additionally tracks E_d - E_0 with d the ground
    degeneracy: the separation between the would-be ground class and the
    rest of the spectrum.  Crossing detection uses the class gap; for a
    nondegenerate ground level the two coincide.  Grid minima are
    numerical witnesses only, not continuum proofs.
    """

    s_values: np.ndarray
    energies: np.ndarray
    gaps: np.ndarray
    class_gaps: np.ndarray
    ground_degeneracy: int
    min_gap: float
    s_at_min_gap: float
    min_class_gap: float
    s_at_min_class_gap: float
    crossing_suspected: bool
    gap_tolerance: float

    @property
    def levels(self) -> int:
        return self.energies.shape[1]

    def to_csv(self) -> str:
        header = (
            ["s"]
            + [f"E_{j}" for j in range(self.levels)]
            + ["gap", "ground_class_gap"]
        )
        lines = [",".join(header)]
        for i, s in enumerate(self.s_values):
            row = [repr(float(s))]
            row += [repr(float(e)) for e in self.energies[i]]
            row.append(repr(float(self.gaps[i])))
            row.append(repr(float(self.class_gaps[i])))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def spectral_profile(
    family: AdiabaticFamily,
    grid_size: int = 101,
    levels: int = 6,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> SpectralProfile:
    """Dense eigensolve of the interpolated operator on a uniform s-grid."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    dim = family.dimension
    degeneracy = family.ground_degeneracy()
    m = min(dim, max(int(levels), 2, degeneracy + 1))
    s_values = np.linspace(0.0, 1.0, grid_size)
    energies = np.empty((grid_size, m), dtype=np.float64)
    hamiltonian_at = family.path_arrays()
    for i, s in enumerate(s_values):
        h = hamiltonian_at(float(s))
        try:
            spectrum = np.sort(h) if h.ndim == 1 else np.linalg.eigvalsh(h)
        except np.linalg.LinAlgError as err:
            raise RuntimeError(f"eigensolver failed at s={float(s)}") from err
        energies[i] = spectrum[:m]
    gaps = energies[:, 1] - energies[:, 0]
    if degeneracy < dim:
        class_gaps = energies[:, degeneracy] - energies[:, 0]
    else:
        class_gaps = np.full(grid_size, np.nan)
    gap_at = int(np.argmin(gaps))
    class_at = int(np.nanargmin(class_gaps)) if degeneracy < dim else 0
    min_class_gap = float(class_gaps[class_at]) if degeneracy < dim else float("nan")
    crossing = bool(degeneracy >= dim or min_class_gap < gap_tol)
    return SpectralProfile(
        s_values=s_values,
        energies=energies,
        gaps=gaps,
        class_gaps=class_gaps,
        ground_degeneracy=degeneracy,
        min_gap=float(gaps[gap_at]),
        s_at_min_gap=float(s_values[gap_at]),
        min_class_gap=min_class_gap,
        s_at_min_class_gap=float(s_values[class_at]),
        crossing_suspected=crossing,
        gap_tolerance=gap_tol,
    )
