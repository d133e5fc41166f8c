"""Problem and start Hamiltonians, their interpolation, and spectra.

The problem Hamiltonian is diagonal: its entry at occupation tuple n is the
squared equation value D(n)^2, so it is non-negative (bounded from below)
and its ground level over the truncated box equals the classical
``min_over_box`` oracle exactly.  It is held as that exact integer
diagonal, never as a matrix.  The start Hamiltonian
``sum_i (a_i^† - conj(alpha_i)) (a_i - alpha_i)`` has the (truncated)
coherent state as its easily prepared ground state; it is held as its k
real symmetric (cutoff+1) x (cutoff+1) per-mode factors.  Each block of the
path (the full space, a symmetric sector) reads its start array straight
off those factors, by one scatter-add over the k (cutoff+1) d pairs of
basis indices that differ in at most one mode, and the product H_I x is k
matrix products of the factors along their modes
(``AdiabaticFamily._apply_start``).  The dense d x d Kronecker sum is the
full space's block, built only for a consumer that solves or returns the
whole matrix: a run or profile on the full space, or ``hamiltonian(s)``.
The two operators are joined by a convex interpolation whose spectrum is
scanned on an s-grid to witness the absence of level crossings.

The whole path is real symmetric.  A displacement alpha = |alpha| e^{i phi}
enters only through the diagonal gauge U = e^{i phi N}: the start operator
and coherent state for alpha are U applied to those for |alpha|, and U
commutes with the diagonal problem operator.  So the path is built for
|alpha|, and no probability, spectrum or verdict depends on phi.

A permutation of the modes that fixes the problem diagonal and the start
operator commutes with every H(s), so a start state it fixes stays in the
subspace of states that the whole group fixes.  ``AdiabaticFamily.sector``
finds that group once, from the per-mode factors and the problem diagonal,
and gives the path restricted to the orbit basis of the subspace
(``SymmetricSector``); the full space is the trivial sector.  The
orthogonal complement of the sector (``Complement``) is invariant too, and
H_P is still diagonal on it, so ``spectral_profile`` solves the full
spectrum as the two smaller blocks; the complement's start array comes
from ``_apply_start``, with no d x d array.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .diophantine import MAX_VARIABLES, Polynomial, box_slabs
from .fock import (
    FockBasis,
    HermitianOperator,
    StateVector,
    as_mode_alphas,
    coherent_state,
    ladder,
    symmetric_array,
)

__all__ = [
    "DEFAULT_ALPHA",
    "ProblemScaleError",
    "MAX_DIMENSION",
    "check_dimension",
    "problem_diagonal",
    "start_factors",
    "linear_schedule",
    "AdiabaticFamily",
    "SymmetricSector",
    "Complement",
    "SpectralProfile",
    "spectral_profile",
    "block_length",
]

# Nonzero displacement keeps the start ground state nondegenerate and
# overlapping every occupation sector; magnitude well inside typical cutoffs.
DEFAULT_ALPHA = complex(2**-0.5)

# class gap under which a profile flags a suspected crossing
GAP_TOL = 1e-9

# largest amplitude difference within an orbit for a state to count as fixed
# by the symmetry group; well above rounding, well below any reported digit
STATE_SYMMETRY_TOL = 1e-14

# bytes that one block may add to memory, in every blocked loop: the
# eigensolver stacks of the midpoint exponential, CF4 and the spectral
# profile, the split check's phase table and RK4's step grid, each loop
# passing the bytes one of its steps adds to ``block_length``.  A block
# spreads numpy's fixed cost per call over its steps; per Strang iteration
# at T = 40 on x^2 + y^2 - 25, x*y - 6 and x*y - z (m = 21, 45, 75; median
# of 21 interleaved rounds, one process) the split took 7.0, 11.2 and 16.0
# us at 64 KiB, 6.1, 8.8 and 12.4 us at 256 KiB and 6.0, 8.4 and 11.9 us at
# 512 KiB, where the decide-dense peak RSS rose by 0.95 MB over 64 KiB's
# against 0.45 MB at 256 KiB
BLOCK_BYTES = 1 << 18

# largest basis dimension d whose dense d x d start operator is built: a
# d x d float64 array takes 8 d^2 bytes, 0.54 GB at this limit, and the
# largest benchmarked basis (three modes at cutoff 16) has d = 4913
MAX_DIMENSION = 8192

# (w_I, w_P) = schedule(s); called on a float64 array of s, and must work
# elementwise on it (numpy arithmetic, ``np.where`` rather than ``if``)
Schedule = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class ProblemScaleError(OverflowError):
    """Squared equation values exceed the signed 64-bit range on the box."""


# largest |D(n)| whose square is below 2^63
_ROOT_LIMIT = math.isqrt(2**63 - 1)


def _debug(name: str, message: str, *args) -> None:
    """Log at DEBUG level on the logger ``name``.

    A DEBUG record reaches no handler unless the application configured
    one, which it cannot do without importing ``logging``; so a process
    that never imports it logs nothing here and does not pay the module's
    resident memory (about 0.4 MB).
    """
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(message, *args)


def block_length(bytes_per_step: int) -> int:
    """How many steps (or grid points) of a blocked loop fill one block of
    ``BLOCK_BYTES``, each adding ``bytes_per_step`` bytes; at least one."""
    return max(1, BLOCK_BYTES // bytes_per_step)


def problem_diagonal(p: Polynomial, basis: FockBasis) -> tuple[int, ...]:
    """Exact integer diagonal D(n)^2 in basis order, which is the C order of
    the box [0, cutoff]^k that ``box_slabs`` evaluates."""
    if p.num_vars != basis.num_modes:
        raise ValueError(
            f"polynomial has {p.num_vars} variables but basis has "
            f"{basis.num_modes} modes"
        )
    values = np.concatenate([v for _, v in box_slabs(p, basis.cutoff)])
    over = np.flatnonzero(np.abs(values) > _ROOT_LIMIT)
    if over.size:
        index = int(over[0])
        raise ProblemScaleError(
            f"squared value {int(values[index]) ** 2} at "
            f"{basis.occupation(index)} exceeds 64-bit range"
        )
    values = values.astype(np.int64, copy=False)
    # the diagonal is highly degenerate: equal squares share one int object
    # (the first of them), 8 bytes per entry instead of 36 for a caller that
    # keeps the tuple (AdiabaticFamily keeps an int64 copy instead)
    squares = (values * values).tolist()
    return tuple(map({}.setdefault, squares, squares))


def check_dimension(basis: FockBasis) -> None:
    """Refuse, with ``ValueError``, a basis too large for dense d x d arrays."""
    d = basis.dimension
    if d > MAX_DIMENSION:
        # exact for any d, where 8 d^2 overflows a float from d ~ 1e154 (200
        # modes at cutoff 8 have d = 9^200); only a refused basis imports it
        from decimal import Decimal

        raise ValueError(
            f"basis dimension {d} exceeds {MAX_DIMENSION}: each dense d x d "
            f"array would need {Decimal(8 * d * d) / 10**9:.3g} GB"
        )


def start_factors(basis: FockBasis, alphas=DEFAULT_ALPHA) -> tuple[np.ndarray, ...]:
    """The start operator's per-mode factors (a - |alpha_i|)^T (a - |alpha_i|).

    One real (cutoff+1) x (cutoff+1) matrix per mode, for the magnitude of
    that mode's displacement; its phase is a gauge that no result depends
    on (see the module docstring).  A mode with zero displacement gets its
    exact number operator diag(0, 1, .., cutoff).
    """
    levels = np.arange(basis.cutoff + 1.0)
    factors = []
    for alpha in as_mode_alphas(alphas, basis.num_modes):
        shifted = ladder(basis.cutoff) - abs(alpha) * np.eye(len(levels))
        factors.append(shifted.T @ shifted if alpha else np.diag(levels))
    return tuple(factors)


def linear_schedule(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return (1.0 - s, s)


@dataclass(frozen=True, eq=False)
class AdiabaticFamily:
    """Convex path from the start operator to the diagonal problem operator.

    ``factors`` holds one real symmetric (cutoff+1) x (cutoff+1) start
    matrix per mode, stored read-only as float64; the start operator H_I is
    their Kronecker sum, and ``basis`` (k modes at that cutoff) comes from
    them.  Each block (``full_space``, ``sector``) builds its own start
    array from the factors; the full space's is the dense d x d sum,
    ``full_space.initial``.  More than ``MAX_VARIABLES`` factors, and a
    factor that is not real, finite, square, of the first factor's size
    and symmetric within ``HERMITICITY_TOL``, are refused, the latter as
    ``HermitianOperator`` refuses a matrix.  ``problem_values`` is the exact
    integer problem diagonal in basis order, the diagonal of H_P, stored
    once as a read-only int64 array; numpy converts it to float64 where a
    float is needed, with the bits of ``astype``.  Entries that are not
    integers of a type that casts safely to int64, and a wrong length, are
    refused.  ``hamiltonian(0)`` is the start operator and
    ``hamiltonian(1)`` the problem operator exactly.
    """

    factors: tuple[np.ndarray, ...]
    problem_values: np.ndarray
    schedule: Schedule = linear_schedule
    basis: FockBasis = field(init=False, repr=False)

    def __post_init__(self):
        # the sector's search tries each of the k! mode permutations
        if len(self.factors) > MAX_VARIABLES:
            raise ValueError(
                f"a family has at most {MAX_VARIABLES} modes, got {len(self.factors)}"
            )
        levels = len(np.atleast_1d(self.factors[0])) if len(self.factors) else 0
        basis = FockBasis(len(self.factors), levels - 1)
        factors = tuple(symmetric_array(factor, levels) for factor in self.factors)
        values = np.array(self.problem_values)
        if values.dtype.kind not in "iu" or not np.can_cast(values.dtype, np.int64):
            raise ValueError(f"problem_values must be int64 integers, got {values.dtype}")
        if values.shape != (basis.dimension,):
            raise ValueError("problem_values length does not match the basis")
        values = values.astype(np.int64, copy=False)
        values.setflags(write=False)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "problem_values", values)

    @property
    def dimension(self) -> int:
        return self.basis.dimension

    def weights(self, s: float | np.ndarray) -> tuple[float, float] | np.ndarray:
        """Schedule weights (w_I, w_P) at s.

        A float s gives a tuple of floats; an (n,) array of s gives the (n, 2)
        float64 array of (w_I, w_P) rows, from one schedule call on the
        whole array.  Raises ``ValueError`` for any s outside [0, 1] (NaN
        included) and for any non-finite weight.
        """
        if not isinstance(s, np.ndarray):
            w_initial, w_problem = self.weights(np.array([s], dtype=np.float64))[0]
            return float(w_initial), float(w_problem)
        # the cheap whole-array tests first: this runs once per evolve block
        if len(s) and not (s.min() >= 0.0 and s.max() <= 1.0):
            outside = s[~((s >= 0.0) & (s <= 1.0))]
            raise ValueError(
                f"interpolation parameter {float(outside[0])} outside [0, 1]"
            )
        weights = np.empty((len(s), 2))
        weights[:, 0], weights[:, 1] = self.schedule(s)
        if not np.isfinite(weights).all():
            first = int(np.argmin(np.isfinite(weights).all(axis=1)))
            w_initial, w_problem = weights[first].tolist()
            raise ValueError(
                f"schedule weights ({w_initial}, {w_problem}) at s={float(s[first])} "
                f"are not finite"
            )
        return weights

    def path_arrays(
        self, weights: np.ndarray, sector: "SymmetricSector | Complement | None" = None
    ) -> np.ndarray:
        """H(s) on plain arrays, for a stack of schedule weights at once.

        ``weights`` is a (b, 2) array of (w_I, w_P) rows, as :meth:`weights`
        gives it (that rejects a non-finite schedule).  Returns
        the (b, m, m) float64 stack of w_I H_I + w_P H_P; on the full space
        by default, or restricted to ``sector`` (one of this family's
        sectors, or its ``complement``) in its basis.  Entries are computed
        exactly as for a single s, ``w_I * H_I`` and then ``+= w_P * H_P`` on
        the diagonal.  Nothing is re-validated: the factors and the problem
        values were validated when the family was built.
        """
        sector = self.full_space if sector is None else sector
        w_initial, w_problem = weights[:, :1, None], weights[:, 1:]
        h = w_initial * sector.initial
        indices = np.arange(sector.dimension)
        h[:, indices, indices] += w_problem * sector.problem
        return h

    def _start_block(self, orbit: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """The start operator in the orbit basis of ``(orbit, sizes)``,
        read-only: entry (a, b) is sum_{i in a, j in b} H_I[i, j] /
        sqrt(|a| |b|), read off ``factors`` and symmetrized as
        ``0.5 * (t + t.T)``.  A basis over ``MAX_DIMENSION`` is refused
        before anything of size d is computed.

        H_I joins two basis indices only when they differ in at most one
        mode, so the block is one weighted ``bincount`` over the k (N+1) d
        cells (i, j) of the factors, listed row by row and, within a row,
        mode by mode.  On the trivial orbits each diagonal entry sums its k
        terms in mode order from 0, and every other entry is one factor
        entry: the bits of the dense Kronecker sum built by ``np.kron``.
        """
        check_dimension(self.basis)
        k, levels, m = self.basis.num_modes, self.basis.cutoff + 1, len(sizes)
        occupations = self.basis.occupations()
        strides = levels ** np.arange(k - 1, -1, -1)
        # cell (i, mode, n) joins i to the index that sets this mode of i to n
        start = np.arange(self.dimension)[:, None] - occupations * strides
        column = orbit[start[:, :, None] + strides[:, None] * np.arange(levels)].ravel()
        row = np.repeat(orbit, k * levels)
        entries = np.stack(self.factors)[np.arange(k), occupations].ravel()
        weights = entries / np.sqrt(sizes[row] * sizes[column])
        block = np.bincount(row * m + column, weights, minlength=m * m).reshape(m, m)
        block = block + block.T
        block *= 0.5
        block.setflags(write=False)
        return block

    def _apply_start(self, x: np.ndarray) -> np.ndarray:
        """H_I x for a (d, c) array ``x``, read off ``factors``: factor i
        multiplies mode i of ``x`` by one ``np.matmul`` on its
        (L^i, L, d c / L^(i+1)) view, L = cutoff + 1, and the k products
        are summed in mode order into one array.  No d x d array is formed."""
        levels = self.basis.cutoff + 1
        total = np.zeros(x.shape, dtype=np.result_type(x, np.float64))
        for i, factor in enumerate(self.factors):
            modes = x.reshape(levels**i, levels, -1)
            total += np.matmul(factor, modes).reshape(x.shape)
        return total

    @cached_property
    def full_space(self) -> "SymmetricSector":
        """The trivial sector: the identity group on the whole basis.  Its
        ``initial`` is the dense d x d start operator, the Kronecker sum of
        ``factors``; a basis over ``MAX_DIMENSION`` is refused."""
        index = np.arange(self.dimension)
        sizes = np.ones(self.dimension, dtype=np.int64)
        return SymmetricSector(
            group_order=1,
            representatives=index,
            orbit=index,
            sizes=sizes,
            initial=self._start_block(index, sizes),
            problem=self.problem_values,
        )

    @cached_property
    def sector(self) -> "SymmetricSector":
        """Orbits of the mode permutations that fix both operators.

        A permutation belongs to the group when it maps each start factor
        onto a bitwise-equal factor and the exact integers
        ``problem_values`` onto themselves.  That suffices for it to fix
        H_I, their Kronecker sum, so the group is never larger than the
        symmetry of the path; ``full_space`` when it is trivial.  No d x d
        array is compared, and a permutation's image of the basis is built
        only when its factors match; the search keeps one running minimum
        of the images, not each image, so its memory is O(d) at any group
        order, while its time grows with the k! permutations tried, k at
        most ``MAX_VARIABLES``.  The start array
        comes from the factors in O(k d), with no d x d array.  Computed on
        first use and kept.
        """
        basis = self.basis
        values = self.problem_values
        occupations = basis.occupations()
        d = self.dimension
        keys = [factor.tobytes() for factor in self.factors]
        # an orbit is named by its smallest basis index: the least image of
        # each index under the group's permutations, kept as a running
        # minimum, with the group's order
        smallest, order = np.arange(d), 1
        # permutations() yields the identity first
        modes = range(basis.num_modes)
        for perm in itertools.islice(itertools.permutations(modes), 1, None):
            if [keys[mode] for mode in perm] != keys:
                continue
            image = np.ravel_multi_index(occupations[:, perm].T, basis.shape)
            if (values[image] == values).all():
                np.minimum(smallest, image, out=smallest)
                order += 1
        if order == 1:
            return self.full_space
        named = smallest == np.arange(d)
        representatives = np.flatnonzero(named)
        orbit = (np.cumsum(named) - 1)[smallest]
        sizes = np.bincount(orbit)
        return SymmetricSector(
            group_order=order,
            representatives=representatives,
            orbit=orbit,
            sizes=sizes,
            initial=self._start_block(orbit, sizes),
            problem=self.problem_values[representatives],
        )

    @cached_property
    def complement(self) -> "Complement":
        """The orthogonal complement of ``sector``; built on first use and
        kept, never by ``sector`` itself.  Its start array is V^T (H_I V)
        for the d x (d - m) Helmert basis V (see ``Complement``), H_I V
        from ``_apply_start`` and the result symmetrized as
        ``0.5 * (t + t.T)``; no d x d array is formed and V is not kept."""
        sector = self.sector
        orbit, sizes, d = sector.orbit, sector.sizes, self.dimension
        # rank of each basis index among its orbit's members, ascending
        rank = np.empty(d, dtype=np.int64)
        rank[np.argsort(orbit, kind="stable")] = np.arange(d) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        last = np.flatnonzero(rank)
        j = rank[last]
        norm = np.sqrt(j * (j + 1.0))
        vectors = ((orbit[:, None] == orbit[last]) & (rank[:, None] < j)) / norm
        vectors[last, np.arange(len(last))] = -j / norm
        reduced = vectors.T @ self._apply_start(vectors)
        return Complement(
            initial=0.5 * (reduced + reduced.T),
            problem=self.problem_values[last],
        )

    def sector_for(self, state: StateVector) -> "SymmetricSector":
        """``sector`` when it holds ``state``, else ``full_space``."""
        sector = self.sector
        return sector if sector.holds(state.amplitudes) else self.full_space

    def hamiltonian(self, s: float) -> HermitianOperator:
        h = self.path_arrays(self.weights(np.array([s], dtype=np.float64)))[0]
        return HermitianOperator(self.basis, h)

    def ground_class_indices(self) -> tuple[int, ...]:
        """Basis indices attaining the minimal problem value."""
        values = self.problem_values
        return tuple(int(i) for i in np.nonzero(values == values.min())[0])

    def ground_degeneracy(self) -> int:
        return len(self.ground_class_indices())

    @classmethod
    def from_polynomial(
        cls,
        p: Polynomial,
        basis: FockBasis,
        alphas=DEFAULT_ALPHA,
    ) -> tuple["AdiabaticFamily", StateVector]:
        """Build the full path for an equation; also returns the start state,
        the truncated coherent state for the magnitudes ``|alpha_i|``.

        The coherent state is the exact ground state of the start operator
        only up to truncation; its energy expectation is tiny whenever the
        truncation-weight warning stays quiet.  A basis over
        ``MAX_DIMENSION`` is refused before anything of size d is computed.
        """
        check_dimension(basis)
        magnitudes = tuple(abs(a) for a in as_mode_alphas(alphas, basis.num_modes))
        ground = coherent_state(basis, magnitudes)
        return cls(start_factors(basis, magnitudes), problem_diagonal(p, basis)), ground


@dataclass(frozen=True, eq=False)
class SymmetricSector:
    """The states fixed by a group of mode permutations, in their orbit basis.

    Orbit a of the group on the basis has the orthonormal vector
    e_a = sum_{i in a} |i> / sqrt(|a|).  ``representatives`` holds the
    smallest basis index of each orbit (ascending), ``orbit`` the orbit of
    every basis index and ``sizes`` the orbit sizes; ``initial`` is the
    dense start operator in the orbit basis, read off the family's
    per-mode factors, ``problem`` the exact int64
    problem value of each orbit (a slice of the family's
    ``problem_values``), and ``group_order`` is the number of
    permutations.  A fixed state psi has coordinates
    c_a = sqrt(|a|) psi_rep(a), and psi_i = c_a / sqrt(|a|) for i in a, so
    orbit-mates keep equal amplitudes.  The trivial group gives the full
    space, whose orbits have size 1: there the same formulas leave every
    amplitude's value unchanged.
    """

    group_order: int
    representatives: np.ndarray
    orbit: np.ndarray
    sizes: np.ndarray
    initial: np.ndarray
    problem: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.representatives)

    @cached_property
    def start_eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """``(energies, W)`` with ``initial = W diag(energies) W^T``; solved
        on first use and kept."""
        return np.linalg.eigh(self.initial)

    @cached_property
    def problem_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, index)``: the distinct problem values, ascending, and
        the position of each orbit's value among them, so that
        ``values[index] == problem``; computed on first use and kept."""
        return np.unique(self.problem, return_inverse=True)

    def holds(self, amplitudes: np.ndarray) -> bool:
        """Whether ``amplitudes`` agree within each orbit, to
        ``STATE_SYMMETRY_TOL``."""
        spread = amplitudes - amplitudes[self.representatives][self.orbit]
        return bool(np.abs(spread).max() <= STATE_SYMMETRY_TOL)

    def reduce(self, amplitudes: np.ndarray) -> np.ndarray:
        """Orbit-basis coordinates of a state the group fixes (a fresh array)."""
        return np.sqrt(self.sizes) * amplitudes[self.representatives]

    def expand(self, coordinates: np.ndarray) -> np.ndarray:
        """Full-basis amplitudes of orbit-basis ``coordinates``, on their
        last axis."""
        return (coordinates / np.sqrt(self.sizes))[..., self.orbit]


@dataclass(frozen=True, eq=False)
class Complement:
    """The states orthogonal to a sector, in Helmert vectors.

    For the members i_0 < .. < i_{k-1} of an orbit and 1 <= j < k, the
    basis holds (|i_0> + .. + |i_{j-1}> - j |i_j>) / sqrt(j (j+1)), one
    vector per basis index i_j in ascending order.  The group fixes both
    operators, so every H(s) maps these states among themselves;
    ``initial`` is the dense start operator in this basis and ``problem``
    the problem diagonal, the exact int64 value of each vector's orbit.
    The vectors themselves are not kept.
    """

    initial: np.ndarray
    problem: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.problem)


@dataclass(frozen=True, eq=False)
class SpectralProfile:
    """Lowest levels of the interpolated operator along an s-grid.

    ``gaps`` is the plain first gap E_1 - E_0.  When the problem diagonal
    has a degenerate ground level that gap closes by construction at s = 1,
    so ``class_gaps`` additionally tracks E_d - E_0 with d the ground
    degeneracy: the separation between the would-be ground class and the
    rest of the spectrum.  Crossing detection uses the class gap; for a
    nondegenerate ground level the two coincide.  ``s_at_min_gap`` and
    ``s_at_min_class_gap`` are the first grid s whose gap is within
    1e-12 max(1, max |E|) of the minimum.  Grid minima are numerical
    witnesses only, not continuum proofs.
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

    @property
    def levels(self) -> int:
        return self.energies.shape[1]

    def to_csv(self) -> str:
        levels = [f"E_{j}" for j in range(self.levels)]
        lines = [",".join(["s", *levels, "gap", "ground_class_gap"])]
        columns = (self.s_values, self.energies, self.gaps, self.class_gaps)
        lines += [",".join(map(repr, row)) for row in np.column_stack(columns).tolist()]
        return "\n".join(lines) + "\n"


def spectral_profile(
    family: AdiabaticFamily,
    grid_size: int = 101,
    levels: int = 6,
) -> SpectralProfile:
    """Dense eigensolve of the interpolated operator on a uniform s-grid.

    H(s) is solved one invariant block at a time: ``family.sector`` and its
    ``complement``, or the full space alone when the symmetry group is
    trivial.  Each point's levels are the sorted union of the lowest of each
    block, so every field is that of the full space.  The schedule weights
    of the whole grid come from one ``weights`` call.  A block of dimension
    m is solved ``block_length(8 m^2)`` points at a time (``eigvalsh``
    keeps no eigenvectors, so a point adds its m x m matrix), one stacked
    ``eigvalsh`` call each; numpy runs the same LAPACK routine on every
    matrix of a stack, so the energies are those of one call per point.
    Logs the basis and block dimensions and the group order at DEBUG level.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if levels < 2:
        raise ValueError(f"levels must be at least 2, got {levels}")
    dim = family.dimension
    degeneracy = family.ground_degeneracy()
    m = min(dim, max(int(levels), degeneracy + 1))
    if grid_size * m > MAX_DIMENSION**2:
        # refused before anything is allocated; Decimal sizes any grid, as
        # in ``check_dimension``
        from decimal import Decimal

        raise ValueError(
            f"grid_size {grid_size} at {m} levels exceeds {MAX_DIMENSION}**2 floats: "
            f"the level array would need {Decimal(8 * grid_size * m) / 10**9:.3g} GB"
        )
    sector = family.sector
    blocks = (sector,) if sector.group_order == 1 else (sector, family.complement)
    _debug(
        __name__,
        "spectral_profile: basis dimension %d, block dimensions %s, group order %d",
        dim,
        [block.dimension for block in blocks],
        sector.group_order,
    )
    s_values = np.linspace(0.0, 1.0, grid_size)
    weights = family.weights(s_values)
    # allocated before the blocks' stacks and m levels wide, so a kept
    # profile neither sits in their freed space nor keeps the 2m-wide merge
    energies = np.empty((grid_size, m), dtype=np.float64)
    lowest = []
    for block in blocks:
        part = np.empty((grid_size, min(m, block.dimension)), dtype=np.float64)
        stack = block_length(8 * block.dimension**2)
        for first in range(0, grid_size, stack):
            rows = slice(first, first + stack)
            h = family.path_arrays(weights[rows], block)
            try:
                spectrum = np.linalg.eigvalsh(h)
            except np.linalg.LinAlgError as err:
                lo, hi = s_values[rows][[0, -1]].tolist()
                raise RuntimeError(f"eigensolver failed for s in [{lo}, {hi}]") from err
            part[rows] = spectrum[:, : part.shape[1]]
        lowest.append(part)
    energies[:] = np.sort(np.concatenate(lowest, axis=1), axis=1)[:, :m]
    gaps = energies[:, 1] - energies[:, 0]
    if degeneracy < dim:
        class_gaps = energies[:, degeneracy] - energies[:, 0]
    else:
        class_gaps = np.full(grid_size, np.nan)
    min_gap, min_class_gap = float(gaps.min()), float(class_gaps.min())
    # gaps equal in exact arithmetic (levels that cross exactly) differ by
    # rounding, which must not pick the reported s: it is the first s whose
    # gap is within ``tie`` of the minimum (s = 0 for an all-NaN class gap)
    tie = 1e-12 * max(1.0, float(np.abs(energies).max()))
    gap_at = int(np.argmax(gaps <= min_gap + tie))
    class_at = int(np.argmax(class_gaps <= min_class_gap + tie))
    crossing = bool(degeneracy >= dim or min_class_gap < GAP_TOL)
    return SpectralProfile(
        s_values=s_values,
        energies=energies,
        gaps=gaps,
        class_gaps=class_gaps,
        ground_degeneracy=degeneracy,
        min_gap=min_gap,
        s_at_min_gap=float(s_values[gap_at]),
        min_class_gap=min_class_gap,
        s_at_min_class_gap=float(s_values[class_at]),
        crossing_suspected=crossing,
    )
