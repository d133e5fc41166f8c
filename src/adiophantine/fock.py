"""Truncated multimode bosonic state space.

Provides basis indexing for occupation tuples with a per-mode cutoff,
state vectors, ladder and number operators, coherent states, and a
validated Hermitian operator with a real-diagonal fast path next to dense
complex storage.  Dimensions are desk scale (hundreds to a few thousand);
there is no sparse backend.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TruncationWarning",
    "BasisMismatchError",
    "FockBasis",
    "StateVector",
    "HermitianOperator",
    "annihilation",
    "number_operator",
    "coherent_state",
    "as_mode_alphas",
]

HERMITICITY_TOL = 1e-12


class TruncationWarning(UserWarning):
    """A construction lost more probability weight to the cutoff than advertised."""


class BasisMismatchError(ValueError):
    """Operands live on different bases."""


@dataclass(frozen=True)
class FockBasis:
    """Occupation tuples (n_1 .. n_k) with 0 <= n_i <= cutoff.

    Enumeration is row-major: mode 1 varies slowest.  ``index`` and
    ``occupation`` are exact inverses over the whole space.
    """

    num_modes: int
    cutoff: int

    def __post_init__(self):
        if self.num_modes < 1:
            raise ValueError("need at least one mode")
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")

    @property
    def dimension(self) -> int:
        return (self.cutoff + 1) ** self.num_modes

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cutoff + 1,) * self.num_modes

    def index(self, occupation: Sequence[int]) -> int:
        occ = tuple(int(n) for n in occupation)
        if len(occ) != self.num_modes:
            raise ValueError(f"expected {self.num_modes} occupations, got {len(occ)}")
        i = 0
        for n in occ:
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"occupation {n} outside [0, {self.cutoff}]")
            i = i * (self.cutoff + 1) + n
        return i

    def occupation(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} outside [0, {self.dimension})")
        digits = []
        i = int(index)
        for _ in range(self.num_modes):
            i, n = divmod(i, self.cutoff + 1)
            digits.append(n)
        return tuple(reversed(digits))

    def occupations(self) -> np.ndarray:
        """All occupation tuples as an int array of shape (dimension, num_modes)."""
        grids = np.unravel_index(np.arange(self.dimension), self.shape)
        return np.stack(grids, axis=1).astype(np.int64)

    def _check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.num_modes:
            raise ValueError(f"mode {mode} outside [0, {self.num_modes})")

    def on_mode(self, mode: int, single: np.ndarray) -> np.ndarray:
        """Dense d x d array acting as the (cutoff+1)^2 ``single`` on one
        mode and as the identity on the others (a Kronecker product)."""
        self._check_mode(mode)
        levels = self.cutoff + 1
        before = np.eye(levels**mode)
        after = np.eye(levels ** (self.num_modes - 1 - mode))
        return np.kron(np.kron(before, single), after)

    def to_json_dict(self) -> dict:
        return {"num_modes": self.num_modes, "cutoff": self.cutoff}


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitude vector over a FockBasis."""

    basis: FockBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.basis.dimension,):
            raise ValueError(
                f"amplitude vector of shape {amps.shape} does not match "
                f"dimension {self.basis.dimension}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        # re^2 + im^2 rather than |z|^2: no square-root round-trip
        return self.amplitudes.real**2 + self.amplitudes.imag**2

    @classmethod
    def basis_state(cls, basis: FockBasis, occupation: Sequence[int]) -> "StateVector":
        amps = np.zeros(basis.dimension, dtype=np.complex128)
        amps[basis.index(occupation)] = 1.0
        return cls(basis, amps)


class HermitianOperator:
    """Hermitian operator over a FockBasis, stored dense or as a real diagonal.

    Validated once, at construction: diagonal storage is real by type, and
    dense storage must be finite and conjugate symmetric within
    ``HERMITICITY_TOL``.  The stored array is read-only.  ``eigensystem``
    returns the full ascending spectrum (exactly, for diagonal storage).
    """

    __slots__ = ("basis", "_diagonal", "_matrix")

    def __init__(self, basis: FockBasis, *, diagonal=None, matrix=None):
        if (diagonal is None) == (matrix is None):
            raise ValueError("provide exactly one of diagonal or matrix")
        self.basis = basis
        self._diagonal = self._matrix = None
        dim = basis.dimension
        if diagonal is not None:
            stored = np.array(diagonal, dtype=np.float64)
            if stored.shape != (dim,):
                raise ValueError("diagonal length does not match basis dimension")
        else:
            stored = np.array(matrix, dtype=np.complex128)
            if stored.shape != (dim, dim):
                raise ValueError("matrix shape does not match basis dimension")
        if not np.all(np.isfinite(stored)):
            raise ValueError("operator entries must be finite")
        stored.setflags(write=False)
        if diagonal is not None:
            self._diagonal = stored
            return
        self._matrix = stored
        defect = self.hermiticity_defect()
        if defect > HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian (defect {defect:.3e} > {HERMITICITY_TOL})"
            )

    @property
    def is_diagonal(self) -> bool:
        return self._diagonal is not None

    @property
    def diagonal(self) -> np.ndarray:
        if self._diagonal is None:
            raise ValueError("operator is stored dense, not diagonal")
        return self._diagonal

    def to_matrix(self) -> np.ndarray:
        if self._diagonal is not None:
            return np.diag(self._diagonal.astype(np.complex128))
        return self._matrix.copy()

    def apply(self, state: StateVector) -> StateVector:
        if self.basis != state.basis:
            raise BasisMismatchError(f"basis mismatch: {self.basis} vs {state.basis}")
        if self._diagonal is not None:
            return StateVector(self.basis, self._diagonal * state.amplitudes)
        return StateVector(self.basis, self._matrix @ state.amplitudes)

    def hermiticity_defect(self) -> float:
        if self._diagonal is not None:
            return 0.0
        return float(np.max(np.abs(self._matrix - self._matrix.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        if self._diagonal is not None:
            return np.sort(self._diagonal)
        return np.linalg.eigvalsh(self._matrix)

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and matching eigenvector columns."""
        if self._diagonal is not None:
            order = np.argsort(self._diagonal, kind="stable")
            vectors = np.eye(self.basis.dimension, dtype=np.complex128)[:, order]
            return self._diagonal[order].copy(), vectors
        return np.linalg.eigh(self._matrix)


def ladder(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix a|n> = sqrt(n)|n-1> on levels 0..cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=np.float64)), k=1)


def annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    """Bosonic lowering operator on one mode, as a real d x d array.

    Exact on the truncated span; only the conjugate raising direction loses
    the transition out of the cutoff level.
    """
    return basis.on_mode(mode, ladder(basis.cutoff))


def number_operator(basis: FockBasis, mode: int) -> HermitianOperator:
    """Diagonal occupation-count operator for one mode."""
    basis._check_mode(mode)
    occ = basis.occupations()
    return HermitianOperator(basis, diagonal=occ[:, mode].astype(np.float64))


def as_mode_alphas(alphas, num_modes: int) -> tuple[complex, ...]:
    """Broadcast a scalar displacement to every mode, or validate a sequence."""
    if isinstance(alphas, (int, float, complex)):
        return (complex(alphas),) * num_modes
    values = tuple(complex(a) for a in alphas)
    if len(values) != num_modes:
        raise ValueError(f"expected {num_modes} displacements, got {len(values)}")
    return values


def coherent_state(
    basis: FockBasis, alphas, *, truncation_warn: float = 1e-6
) -> StateVector:
    """Truncated coherent state with amplitudes ~ prod alpha_i^n_i / sqrt(n_i!).

    Renormalized to unit norm on the truncated space.  Emits a
    :class:`TruncationWarning` when the probability weight lost to the
    cutoff exceeds ``truncation_warn`` before renormalization.
    """
    alpha_list = as_mode_alphas(alphas, basis.num_modes)
    amplitudes = np.ones(1, dtype=np.complex128)
    kept_weight = 1.0
    for alpha in alpha_list:
        c = np.empty(basis.cutoff + 1, dtype=np.complex128)
        c[0] = 1.0
        for n in range(1, basis.cutoff + 1):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        amplitudes = np.kron(amplitudes, c)
        kept_weight *= min(
            float(np.sum(np.abs(c) ** 2)) / math.exp(abs(alpha) ** 2), 1.0
        )
    truncated_weight = 1.0 - kept_weight
    if truncated_weight > truncation_warn:
        warnings.warn(
            f"coherent state loses weight {truncated_weight:.3e} to the cutoff "
            f"{basis.cutoff} (limit {truncation_warn:.1e})",
            TruncationWarning,
            stacklevel=2,
        )
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    return StateVector(basis, amplitudes)
