"""Truncated multimode bosonic state space.

Provides basis indexing for occupation tuples with a per-mode cutoff,
state vectors, the ladder operator, coherent states, and a validated real
symmetric operator stored as a dense matrix.  Dimensions are desk scale
(hundreds to a few thousand); there is no sparse backend.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "TruncationWarning",
    "FockBasis",
    "StateVector",
    "HermitianOperator",
    "annihilation",
    "coherent_state",
    "as_mode_alphas",
    "matvec",
]

HERMITICITY_TOL = 1e-12

# largest probability weight a coherent state may lose to the cutoff, before
# renormalization, without a TruncationWarning
TRUNCATION_WARN = 1e-6

# log of the largest squared norm, 2^1000, that a coherent state's amplitudes
# may reach before renormalization: then they, their norm and the start
# operator (entries up to |alpha|^2 + n, doubled when symmetrized) are finite
_LOG_NORM_LIMIT = 1000 * math.log(2)


class TruncationWarning(UserWarning):
    """A construction lost more probability weight to the cutoff than advertised."""


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
        for n in occ:
            if not 0 <= n <= self.cutoff:
                raise ValueError(f"occupation {n} outside [0, {self.cutoff}]")
        return int(np.ravel_multi_index(occ, self.shape))

    def occupation(self, index: int) -> tuple[int, ...]:
        if not 0 <= index < self.dimension:
            raise ValueError(f"index {index} outside [0, {self.dimension})")
        return tuple(int(n) for n in np.unravel_index(index, self.shape))

    def occupations(self) -> np.ndarray:
        """All occupation tuples as an int array of shape (dimension, num_modes)."""
        grids = np.unravel_index(np.arange(self.dimension), self.shape)
        return np.stack(grids, axis=1).astype(np.int64)

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
    """Real symmetric operator over a FockBasis, stored as a dense matrix.

    Validated once, at construction: entries must be finite and real
    (complex input is refused), and the matrix symmetric within
    ``HERMITICITY_TOL``.  The stored float64 matrix, ``array``, is read-only.
    """

    __slots__ = ("basis", "array")

    def __init__(self, basis: FockBasis, matrix):
        self.basis = basis
        self.array = symmetric_array(matrix, basis.dimension)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.array)


def symmetric_array(matrix, size: int) -> np.ndarray:
    """``matrix`` as a read-only float64 ``size`` x ``size`` array.

    Raises ``ValueError`` unless it is real (complex input is refused), of
    that shape, finite, and symmetric within ``HERMITICITY_TOL``.
    """
    if np.iscomplexobj(matrix):
        raise ValueError("matrix must be real")
    stored = np.array(matrix, dtype=np.float64)
    if stored.shape != (size, size):
        raise ValueError(f"matrix shape {stored.shape} is not ({size}, {size})")
    if not np.all(np.isfinite(stored)):
        raise ValueError("operator entries must be finite")
    defect = float(np.max(np.abs(stored - stored.T)))
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not symmetric (defect {defect:.3e} > {HERMITICITY_TOL})"
        )
    stored.setflags(write=False)
    return stored


def matvec(matrix: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``matrix @ psi`` for a real ``matrix`` and a C-contiguous complex128
    vector ``psi``.

    The matrix multiplies the (n, 2) float64 view of ``psi``, in real
    arithmetic: numpy's ``real @ complex`` would copy the whole matrix to
    complex on every call.
    """
    n = psi.shape[0]
    pairs = matrix.dot(np.ndarray((n, 2), np.float64, psi))
    return np.ndarray((n,), np.complex128, pairs)


def ladder(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix a|n> = sqrt(n)|n-1> on levels 0..cutoff."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=np.float64)), k=1)


def annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    """Bosonic lowering operator on one mode, as a real d x d array.

    Exact on the truncated span; only the conjugate raising direction loses
    the transition out of the cutoff level.  It is the Kronecker product of
    the one-mode ladder on ``mode`` with identities on the other modes.
    """
    if not 0 <= mode < basis.num_modes:
        raise ValueError(f"mode {mode} outside [0, {basis.num_modes})")
    levels = basis.cutoff + 1
    before = np.eye(levels**mode)
    after = np.eye(levels ** (basis.num_modes - 1 - mode))
    return np.kron(np.kron(before, ladder(basis.cutoff)), after)


def as_mode_alphas(alphas, num_modes: int) -> tuple[complex, ...]:
    """Broadcast a scalar displacement to every mode, or validate a sequence."""
    if isinstance(alphas, (int, float, complex)):
        return (complex(alphas),) * num_modes
    values = tuple(complex(a) for a in alphas)
    if len(values) != num_modes:
        raise ValueError(f"expected {num_modes} displacements, got {len(values)}")
    return values


def _log_norms(alphas: tuple[complex, ...], cutoff: int) -> list[float]:
    """log sum_{n <= cutoff} |alpha|^(2n) / n! for each displacement, the
    squared norm of its mode's coherent amplitudes before renormalization,
    computed without overflow.  Raises ``ValueError`` when the product of
    these norms, that of the whole state, reaches 2^1000."""
    log_norms = []
    for alpha in alphas:
        log_r2 = 2 * math.log(abs(alpha)) if alpha else -math.inf
        terms = [n * log_r2 - math.lgamma(n + 1) for n in range(1, cutoff + 1)]
        log_norms.append(float(np.logaddexp.reduce([0.0, *terms])))
    if not sum(log_norms) < _LOG_NORM_LIMIT:
        raise ValueError(
            f"displacements {alphas} overflow the start state at cutoff {cutoff}"
        )
    return log_norms


def coherent_state(basis: FockBasis, alphas) -> StateVector:
    """Truncated coherent state with amplitudes ~ prod alpha_i^n_i / sqrt(n_i!).

    Renormalized to unit norm on the truncated space.  Emits a
    :class:`TruncationWarning` when the probability weight lost to the
    cutoff exceeds ``TRUNCATION_WARN`` before renormalization.  Raises
    ``ValueError`` when the amplitudes before renormalization would have a
    squared norm of 2^1000 or more.
    """
    alpha_list = as_mode_alphas(alphas, basis.num_modes)
    log_norms = _log_norms(alpha_list, basis.cutoff)
    amplitudes = np.ones(1, dtype=np.complex128)
    kept_weight = 1.0
    for alpha, log_norm in zip(alpha_list, log_norms):
        c = np.empty(basis.cutoff + 1, dtype=np.complex128)
        c[0] = 1.0
        for n in range(1, basis.cutoff + 1):
            c[n] = c[n - 1] * alpha / math.sqrt(n)
        amplitudes = np.kron(amplitudes, c)
        # the Poisson weight of n <= cutoff, in log space: e^|alpha|^2 overflows
        kept_weight *= min(math.exp(log_norm - abs(alpha) * abs(alpha)), 1.0)
    truncated_weight = 1.0 - kept_weight
    if truncated_weight > TRUNCATION_WARN:
        warnings.warn(
            f"coherent state loses weight {truncated_weight:.3e} to the cutoff "
            f"{basis.cutoff} (limit {TRUNCATION_WARN:.1e})",
            TruncationWarning,
            stacklevel=2,
        )
    amplitudes = amplitudes / np.linalg.norm(amplitudes)
    return StateVector(basis, amplitudes)
