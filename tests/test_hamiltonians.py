import dataclasses
import itertools
import logging
import math
import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adiophantine import hamiltonians
from adiophantine.diophantine import (
    EvaluationRangeError,
    evaluate,
    min_over_box,
    parse_equation,
)
from adiophantine.evolution import EvolutionParams, evolve
from adiophantine.fock import (
    HERMITICITY_TOL,
    FockBasis,
    StateVector,
    TruncationWarning,
    annihilation,
    coherent_state,
    ladder,
    matvec,
)
from adiophantine.hamiltonians import (
    DEFAULT_ALPHA,
    GAP_TOL,
    AdiabaticFamily,
    ProblemScaleError,
    linear_schedule,
    problem_diagonal,
    spectral_profile,
    start_factors,
)
from test_diophantine import polynomials, wide_polynomials


def _family(text, cutoff, alphas=0.5):
    p = parse_equation(text)
    basis = FockBasis(p.num_vars, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return AdiabaticFamily.from_polynomial(p, basis, alphas=alphas)


def _start(k, cutoff, alphas=DEFAULT_ALPHA):
    """The family of x (+ y (+ z)) on k modes and its start state."""
    return _family(" + ".join("xyz"[:k]), cutoff, alphas=alphas)


# -- problem Hamiltonian -------------------------------------------------------


def test_problem_diagonal_examples():
    basis = FockBasis(1, 3)
    assert problem_diagonal(parse_equation("x - 1"), basis) == (1, 0, 1, 4)
    assert problem_diagonal(parse_equation("2*x - 3"), basis) == (9, 1, 1, 9)


def test_problem_hamiltonian_is_diagonal_and_nonnegative():
    family, _ = _family("x*y - 6", 4)
    values = family.problem_values
    assert values.dtype == np.int64 and np.all(values >= 0)
    expected = problem_diagonal(parse_equation("x*y - 6"), family.basis)
    assert values.tolist() == list(expected)
    assert np.array_equal(family.hamiltonian(1.0).array, np.diag(values))
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 1
    # the blocks hold int64 slices of it, not float copies
    for block in (family.full_space, family.sector, family.complement):
        assert block.problem.dtype == np.int64


def test_ground_level_matches_box_oracle():
    for text, cutoff in [("x - 1", 5), ("2*x - 3", 6), ("x + y - 5", 4), ("x*y - 6", 4)]:
        p = parse_equation(text)
        basis = FockBasis(p.num_vars, cutoff)
        values = problem_diagonal(p, basis)
        oracle = min_over_box(p, cutoff)
        assert min(values) == oracle.value
        assert (min(values) == 0) == (oracle.value == 0)
        assert values.count(min(values)) == oracle.multiplicity


def test_problem_arity_mismatch():
    with pytest.raises(ValueError):
        problem_diagonal(parse_equation("x + y"), FockBasis(1, 3))


def test_problem_scale_guard():
    with pytest.raises(ProblemScaleError):
        problem_diagonal(parse_equation("3000000000*x"), FockBasis(1, 8))


def _check_diagonal_against_reference(p, cutoff):
    # basis order is itertools.product order: the first mode varies slowest
    basis = FockBasis(p.num_vars, cutoff)
    try:
        reference = [
            evaluate(p, t) ** 2
            for t in itertools.product(range(cutoff + 1), repeat=p.num_vars)
        ]
    except EvaluationRangeError:
        with pytest.raises(EvaluationRangeError):
            problem_diagonal(p, basis)
        return
    if max(reference) >= 2**63:
        with pytest.raises(ProblemScaleError):
            problem_diagonal(p, basis)
        return
    assert problem_diagonal(p, basis) == tuple(reference)


@settings(max_examples=150, deadline=None)
@given(polynomials(), st.integers(1, 5))
def test_problem_diagonal_matches_scalar_reference(p, cutoff):
    assume(p.num_vars > 0)
    _check_diagonal_against_reference(p, cutoff)


@settings(max_examples=100, deadline=None)
@given(wide_polynomials(), st.integers(1, 3))
def test_problem_diagonal_matches_scalar_reference_on_wide_integers(p, cutoff):
    assume(p.num_vars > 0)
    _check_diagonal_against_reference(p, cutoff)


def test_problem_diagonal_shares_equal_entries():
    # the family keeps the diagonal: one int object per distinct value
    values = problem_diagonal(parse_equation("x^2 + y^2 - 50"), FockBasis(2, 8))
    assert values[1 * 9 + 7] == values[5 * 9 + 5] == 0
    assert len({id(v) for v in values}) == len(set(values)) < len(values)


def test_problem_scale_guard_names_the_first_point():
    # |D| = 3037000499 is the largest whose square is below 2^63
    basis = FockBasis(1, 1)
    assert problem_diagonal(parse_equation("3037000499*x"), basis) == (0, 3037000499**2)
    with pytest.raises(ProblemScaleError, match=r"at \(1,\)"):
        problem_diagonal(parse_equation("3037000500*x"), basis)


# -- start Hamiltonian ---------------------------------------------------------


@pytest.mark.parametrize("k, cutoff", [(1, 3), (2, 3), (3, 2)])
def test_initial_hamiltonian_zero_displacement(k, cutoff):
    # the sum of the modes' number operators, stored dense
    family, ground = _start(k, cutoff, 0.0)
    expected = np.diag(family.basis.occupations().sum(axis=1).astype(np.float64))
    assert family.full_space.initial.dtype == np.float64
    assert _bits(family.full_space.initial).tolist() == _bits(expected).tolist()
    assert ground.amplitudes.tolist() == [1.0] + [0.0] * (family.dimension - 1)


def test_initial_hamiltonian_displaced_ground_state():
    family, nominal = _start(1, 16, 0.5)
    initial = family.full_space.initial
    evals, evecs = np.linalg.eigh(initial)
    assert evals[0] < 1e-8
    overlap = abs(np.vdot(evecs[:, 0], nominal.amplitudes))
    assert overlap > 1 - 1e-6
    rayleigh = np.vdot(nominal.amplitudes, matvec(initial, nominal.amplitudes)).real
    assert rayleigh < 1e-6


def test_initial_hamiltonian_default_alpha_rayleigh():
    family, nominal = _start(2, 8)
    initial = family.full_space.initial
    rayleigh = np.vdot(nominal.amplitudes, matvec(initial, nominal.amplitudes)).real
    assert 0 <= rayleigh < 1e-6


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
@pytest.mark.parametrize("k, cutoff", [(1, 8), (2, 5), (3, 4)])
def test_initial_hamiltonian_is_exact_kronecker_sum(k, cutoff):
    # reference: d x d products of the full-space ladder matrices
    family, _ = _start(k, cutoff)
    basis = family.basis
    eye = np.eye(basis.dimension)
    expected = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    for mode in range(k):
        shifted = annihilation(basis, mode) - DEFAULT_ALPHA * eye
        expected += shifted.conj().T @ shifted
    assert np.array_equal(family.full_space.initial, expected)
    assert not family.full_space.initial.flags.writeable
    assert family.full_space.initial is family.full_space.initial


def test_start_factors_give_a_zero_displacement_its_exact_number_operator():
    # (a - 0)^T (a - 0) would hold sqrt(n)^2, which rounds at n = 2 and 3;
    # a mixed config keeps the ladder product for its displaced mode only
    zero, displaced = start_factors(FockBasis(2, 4), (0.0, 0.5))
    assert _bits(zero).tolist() == _bits(np.diag([0.0, 1.0, 2.0, 3.0, 4.0])).tolist()
    assert not np.array_equal(ladder(4).T @ ladder(4), zero)
    shifted = ladder(4) - 0.5 * np.eye(5)
    assert _bits(displaced).tolist() == _bits(shifted.T @ shifted).tolist()
    family, _ = _family("x + y", 4, alphas=(0.0, 0.5j))
    assert all(map(np.array_equal, family.factors, (zero, displaced)))
    expected = np.kron(zero, np.eye(5)) + np.kron(np.eye(5), displaced)
    assert _bits(family.full_space.initial).tolist() == _bits(expected).tolist()


@pytest.mark.parametrize("alphas", [0.0, DEFAULT_ALPHA])
def test_start_operator_refuses_a_basis_over_the_dimension_limit(monkeypatch, alphas):
    # the largest benchmarked basis stays buildable; the limit is patched
    # down for the refusal, since a regressed guard at the real limit would
    # allocate gigabytes
    assert hamiltonians.MAX_DIMENSION >= FockBasis(3, 16).dimension
    built, _ = _start(3, 4, alphas)
    monkeypatch.setattr(hamiltonians, "MAX_DIMENSION", 100)
    assert _start(2, 9, alphas)[0].full_space.initial.shape == (100, 100)
    message = "basis dimension 125 exceeds 100: each dense d x d array would need"
    # from_polynomial refuses before the problem diagonal is computed
    monkeypatch.setattr(hamiltonians, "problem_diagonal", None)
    with pytest.raises(ValueError, match=message + " 0.000125 GB"):
        _start(3, 4, alphas)
    # a family built under the limit refuses to allocate its dense sum
    with pytest.raises(ValueError, match=message):
        built.full_space
    # the factors stay small at any dimension; only the check runs at 9^200
    assert len(start_factors(FockBasis(200, 8), alphas)) == 200
    with pytest.raises(ValueError, match=r"array would need 3\.98e\+373 GB"):
        hamiltonians.check_dimension(FockBasis(200, 8))


def test_displacement_phase_is_a_gauge():
    # the real production path for |alpha| against the complex path for
    # alpha: H_I = sum_i (A_i - alpha_i)^† (A_i - alpha_i) from d x d
    # products, its complex coherent state, a midpoint-exponential loop and
    # an eigvalsh grid in complex arithmetic
    alphas = (0.3 + 0.4j, -0.2j)
    family, start = _family("x*y - 6", 5, alphas=alphas)
    basis = family.basis
    eye = np.eye(basis.dimension)
    h_initial = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    for mode, alpha in enumerate(alphas):
        shifted = annihilation(basis, mode) - alpha * eye
        h_initial += shifted.conj().T @ shifted
    h_problem = np.diag(family.problem_values)

    def hamiltonian(s):
        return (1.0 - s) * h_initial + s * h_problem

    params = EvolutionParams(10.0, 0.02, record_grid=2)
    psi = coherent_state(basis, alphas).amplitudes
    for t, h in zip(*params.step_starts_and_sizes()):
        midpoint = (t + 0.5 * h) / params.total_time
        energies, vectors = np.linalg.eigh(hamiltonian(midpoint))
        psi = vectors @ (np.exp(-1j * h * energies) * (vectors.conj().T @ psi))
    expected = np.abs(psi) ** 2 / np.sum(np.abs(psi) ** 2)
    got = evolve(family, start, params).final_probabilities()
    assert np.max(np.abs(got - expected)) <= 1e-12
    s_values = np.linspace(0.0, 1.0, 21)
    expected = np.array([np.linalg.eigvalsh(hamiltonian(s))[:6] for s in s_values])
    got = spectral_profile(family, grid_size=21).energies
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("alphas", [DEFAULT_ALPHA, (0.3 + 0.4j, -0.2j), 0.0])
def test_path_is_real(alphas):
    family, start = _family("x*y - 6", 4, alphas=alphas)
    assert family.path_arrays(np.array([family.weights(0.5)])).dtype == np.float64
    assert family.full_space.initial.dtype == np.float64
    assert not np.any(start.amplitudes.imag)


# -- interpolation -------------------------------------------------------------


def test_endpoints_exact():
    family, _ = _family("x - 1", 6)
    assert np.array_equal(family.hamiltonian(0.0).array, family.full_space.initial)
    assert np.array_equal(
        family.hamiltonian(1.0).array, np.diag(family.problem_values)
    )


@pytest.mark.parametrize(
    "values, message",
    [
        (np.arange(5.0), "must be int64 integers, got float64"),
        ((0, 1, 2, 3, 4.5), "must be int64 integers, got float64"),
        (np.arange(5, dtype=np.uint64), "must be int64 integers, got uint64"),
        ((0, 1, 2, 3, 2**64), "must be int64 integers, got object"),
        (np.ones(5, dtype=bool), "must be int64 integers, got bool"),
        ((0, 1, 2, 3), "length does not match"),
        ((0, 1, 2, 3, 4, 5), "length does not match"),
        (np.zeros((5, 1), dtype=np.int64), "length does not match"),
    ],
    ids=[
        "float-array", "float-entry", "uint64", "beyond-int64", "bool",
        "short", "long", "2-d",
    ],
)
def test_family_refuses_non_integer_or_misfit_problem_values(values, message):
    family, _ = _family("x - 1", 4)
    with pytest.raises(ValueError, match=message):
        AdiabaticFamily(family.factors, values)


def test_family_copies_its_problem_values():
    family, _ = _family("x - 1", 4)
    values = np.array([1, 0, 1, 4, 9], dtype=np.int32)
    copied = AdiabaticFamily(family.factors, values)
    values[0] = 7
    assert copied.problem_values.dtype == np.int64
    assert copied.problem_values.tolist() == [1, 0, 1, 4, 9]
    # stored once: the full space holds the family's array itself
    assert copied.full_space.problem is copied.problem_values


def test_interpolation_range_check():
    family, _ = _family("x - 1", 4)
    with pytest.raises(ValueError):
        family.hamiltonian(-0.01)
    with pytest.raises(ValueError):
        family.hamiltonian(1.01)


def test_hermiticity_along_path():
    family, _ = _family("x + y - 5", 3)
    for s in np.random.default_rng(5).uniform(0, 1, 10):
        h = family.hamiltonian(float(s)).array
        assert np.abs(h - h.T).max() <= HERMITICITY_TOL


def test_midpoint_weyl_bounds():
    family, _ = _family("x - 1", 8)
    mid = family.hamiltonian(0.5).eigenvalues()
    lo = np.linalg.eigvalsh(family.full_space.initial)
    hi = np.sort(family.problem_values)
    assert mid[0] >= 0.5 * (lo[0] + hi[0]) - 1e-10
    assert mid[-1] <= 0.5 * (lo[-1] + hi[-1]) + 1e-10


def _smoothstep(s):
    sigma = s * s * (3.0 - 2.0 * s)
    return (1.0 - sigma, sigma)


def _nan_after_half(s):
    return (1.0 - s, np.where(s < 0.5, s, np.nan))


def test_non_finite_schedule_weight_raises():
    family, _ = _family("x - 1", 4)
    broken = dataclasses.replace(family, schedule=_nan_after_half)
    assert broken.weights(0.25) == (0.75, 0.25)
    with pytest.raises(ValueError, match="not finite"):
        broken.hamiltonian(0.75)
    with pytest.raises(ValueError, match="not finite"):
        spectral_profile(broken, grid_size=5)


# s grids: 0, 1, the smallest subnormal and normal numbers, and up to 40
# more points in [0, 1], subnormals included
_EDGES = np.array([0.0, 1.0, 5e-324, 2.2250738585072014e-308])
_unit_grids = arrays(
    np.float64, st.integers(0, 40), elements=st.floats(0.0, 1.0)
).map(lambda grid: np.concatenate([_EDGES, grid]))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@settings(max_examples=100, deadline=None)
@given(_unit_grids)
def test_schedules_on_arrays_are_bitwise_their_scalar_calls(grid):
    family, _ = _family("x - 1", 2)
    for schedule in (linear_schedule, _smoothstep):
        on_array = np.stack(schedule(grid), axis=1)
        on_floats = [schedule(float(s)) for s in grid]
        assert np.array_equal(_bits(on_array), _bits(on_floats))
        stepped = dataclasses.replace(family, schedule=schedule)
        scalar_weights = [stepped.weights(float(s)) for s in grid]
        assert np.array_equal(_bits(stepped.weights(grid)), _bits(scalar_weights))


@settings(max_examples=100, deadline=None)
@given(
    _unit_grids,
    st.just(np.nan) | st.floats().filter(lambda s: not 0.0 <= s <= 1.0),
    st.data(),
)
def test_weights_array_rejects_any_s_outside_unit_interval(grid, bad, data):
    family, _ = _family("x - 1", 2)
    s = np.insert(grid, data.draw(st.integers(0, len(grid))), bad)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        family.weights(s)


@settings(max_examples=100, deadline=None)
@given(_unit_grids, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_weights_array_rejects_any_non_finite_weight(grid, bad, data):
    family, _ = _family("x - 1", 2)
    at = grid[data.draw(st.integers(0, len(grid) - 1))]
    column = data.draw(st.integers(0, 1))

    def schedule(s):
        pair = [1.0 - s, s]
        pair[column] = np.where(s == at, bad, pair[column])
        return tuple(pair)

    broken = dataclasses.replace(family, schedule=schedule)
    with pytest.raises(ValueError, match="not finite"):
        broken.weights(grid)


# -- symmetric sector -----------------------------------------------------------


@pytest.mark.parametrize(
    "text, cutoff, alphas, dimension, group_order",
    [
        ("x + y - 5", 8, DEFAULT_ALPHA, 45, 2),
        ("x*y - z", 4, DEFAULT_ALPHA, 75, 2),
        ("x*y*z - 8", 4, DEFAULT_ALPHA, 35, 6),
        ("x - y", 4, DEFAULT_ALPHA, 15, 2),  # p is antisymmetric, p^2 symmetric
        ("x + 2*y", 4, DEFAULT_ALPHA, 25, 1),
        ("x + y - 5", 4, (0.7, 0.5), 25, 1),
        # magnitudes one rounding apart give factors that differ: no group
        ("x + y - 5", 4, (0.5, 0.5 + 2**-53), 25, 1),
        ("x + y + z - 3", 4, (0.7, 0.5j, 0.5), 75, 2),  # only |alpha| counts
        ("x + y - 5", 4, 0.0, 15, 2),  # a diagonal start operator, stored dense
    ],
)
def test_sector_dimension(text, cutoff, alphas, dimension, group_order):
    family, start = _family(text, cutoff, alphas=alphas)
    sector = family.sector
    assert (sector.dimension, sector.group_order) == (dimension, group_order)
    assert sector.holds(start.amplitudes)
    assert int(sector.sizes.sum()) == family.dimension
    # each orbit is named by its smallest basis index
    assert np.array_equal(sector.orbit[sector.representatives], np.arange(dimension))
    assert np.all(sector.representatives[sector.orbit] <= np.arange(family.dimension))


@pytest.mark.parametrize("text, alphas", [("x*y*z - 8", DEFAULT_ALPHA), ("x - y", 0.0)])
def test_sector_arrays_are_the_restricted_path(text, alphas):
    # both equations are fixed by every permutation of their variables
    family, start = _family(text, 3, alphas=alphas)
    sector = family.sector
    basis = family.basis
    orbits = sorted(
        {
            tuple(sorted({basis.index(q) for q in itertools.permutations(n)}))
            for n in map(basis.occupation, range(family.dimension))
        }
    )
    assert sector.representatives.tolist() == [orbit[0] for orbit in orbits]
    v = np.zeros((family.dimension, len(orbits)))
    for a, orbit in enumerate(orbits):
        v[list(orbit), a] = 1.0 / np.sqrt(len(orbit))

    for s in (0.0, 0.3, 1.0):
        weights = np.array([family.weights(s)])
        full = family.path_arrays(weights)[0]
        reduced = family.path_arrays(weights, sector)[0]
        assert np.max(np.abs(reduced - v.T @ full @ v)) <= 1e-12
    coordinates = sector.reduce(start.amplitudes)
    assert np.max(np.abs(coordinates - v.T @ start.amplitudes)) <= 1e-15
    assert np.max(np.abs(sector.expand(coordinates) - start.amplitudes)) <= 1e-15


def test_sector_group_reads_bitwise_equal_factors():
    factor = start_factors(FockBasis(1, 3), 0.5)[0]
    nudged = factor.copy()
    nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)  # its last bit
    values = problem_diagonal(parse_equation("x + y - 3"), FockBasis(2, 3))
    assert AdiabaticFamily((factor, factor), values).sector.group_order == 2
    assert AdiabaticFamily((factor, nudged), values).sector.group_order == 1
    # the problem diagonal must be fixed too
    values = problem_diagonal(parse_equation("x + 2*y - 3"), FockBasis(2, 3))
    assert AdiabaticFamily((factor, factor), values).sector.group_order == 1


def test_sector_search_keeps_no_image_per_permutation():
    # seven modes with equal factors and a symmetric diagonal: each of the
    # 7! = 5040 permutations is a symmetry, and the orbits of the d = 128
    # basis states are their occupation counts.  Kept images of every
    # permutation would take 5040 x 128 x 8 B = 5.2 MB, twice over when
    # stacked for their minimum; the running minimum stays O(d)
    family, _ = _family("a + b + c + d + e + f + g - 3", 1)
    assert "sector" not in vars(family)
    tracemalloc.start()
    try:
        sector = family.sector
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sector.group_order, sector.dimension) == (5040, 8)
    assert sector.orbit.tolist() == [bin(i).count("1") for i in range(128)]
    assert sector.sizes.tolist() == [math.comb(7, c) for c in range(8)]
    assert peak < 1 << 20


@st.composite
def _families(draw):
    """Families of 1 to 3 modes at cutoffs 1 to 4.  Each mode's factor is
    drawn from a pool of two (a displaced ladder product or a random
    symmetric matrix), so equal factors are common; the problem diagonal
    is a function of the sorted occupations (symmetric under every mode
    permutation) or arbitrary.  A random matrix may be tilted off symmetry,
    within ``HERMITICITY_TOL``."""
    k, cutoff = draw(st.sampled_from([3, 2, 1])), draw(st.integers(1, 4))
    levels = cutoff + 1
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)
    # + tilt above the diagonal, - tilt below: a defect of 2 tilt, rounded
    tilt = draw(st.sampled_from([0.0, 4.9e-13]))
    ones = np.ones((levels, levels))
    skew = tilt * (np.triu(ones, 1) - np.tril(ones, -1))
    pool = []
    for _ in range(2):
        if draw(st.booleans()):
            pool.append(start_factors(FockBasis(1, cutoff), draw(entries))[0])
        else:
            upper = np.triu(draw(arrays(np.float64, (levels, levels), elements=entries)))
            pool.append(upper + np.triu(upper, 1).T + skew)
    factors = [pool[draw(st.integers(0, 1))] for _ in range(k)]
    basis = FockBasis(k, cutoff)
    small = st.integers(0, 3)
    if draw(st.booleans()):
        table = defaultdict(lambda: draw(small))
        values = [table[tuple(sorted(n))] for n in basis.occupations().tolist()]
    else:
        values = draw(st.lists(small, min_size=basis.dimension, max_size=basis.dimension))
    return AdiabaticFamily(factors, values)


@settings(max_examples=60, deadline=None)
@given(_families())
def test_sector_orbit_projector_commutes_exactly_with_the_start_operator(family):
    # P H = H P for the orbit projector P (entries 1/|a| within orbit a)
    # exactly when every row i of H has, for each orbit b, a sum
    # sum_{j in b} H_ij that is the same for all rows of i's orbit; the
    # sums are exact fractions of the Kronecker sum of the factors, whose
    # diagonal gathers one term from each mode (level == n[mode])
    basis, factors, sector = family.basis, family.factors, family.sector
    occupations = basis.occupations().tolist()
    sums = []
    for n in occupations:
        row = defaultdict(Fraction)
        for mode, factor in enumerate(factors):
            for level in range(basis.cutoff + 1):
                m = n[:mode] + [level] + n[mode + 1 :]
                row[sector.orbit[basis.index(m)]] += Fraction(factor[n[mode], level])
        sums.append({b: total for b, total in row.items() if total})
    for i, a in enumerate(sector.orbit):
        assert sums[i] == sums[sector.representatives[a]]
    # the dense sum rounds each diagonal entry's k terms in mode order, so a
    # permutation can move it by a rounding: it commutes within those
    v = np.zeros((family.dimension, sector.dimension))
    v[np.arange(family.dimension), sector.orbit] = 1.0
    projector = (v / sector.sizes) @ v.T
    initial = family.full_space.initial
    commutator = projector @ initial - initial @ projector
    assert np.abs(commutator).max() <= 1e-13 * max(1.0, np.abs(initial).max())
    # the group is every mode permutation with equal factors that fixes
    # the problem diagonal
    keys = [factor.tobytes() for factor in factors]
    order = 0
    for perm in itertools.permutations(range(basis.num_modes)):
        image = [basis.index([n[q] for q in perm]) for n in occupations]
        fixed = np.array_equal(family.problem_values[image], family.problem_values)
        order += fixed and [keys[q] for q in perm] == keys
    assert sector.group_order == order


@settings(max_examples=100, deadline=None)
@given(_families())
def test_start_blocks_are_read_off_the_factors(family):
    # the full space is bitwise the Kronecker sum built by np.kron, the
    # reference; the sector is V^T H_I V for its orbit basis V, formed
    # densely here, up to rounding
    basis, d = family.basis, family.dimension
    levels, k = basis.cutoff + 1, basis.num_modes
    total = np.zeros((d, d))
    for mode, factor in enumerate(family.factors):
        before, after = np.eye(levels**mode), np.eye(levels ** (k - 1 - mode))
        total += np.kron(np.kron(before, factor), after)
    expected = total + total.T
    expected *= 0.5
    assert np.array_equal(_bits(family.full_space.initial), _bits(expected))
    sector = family.sector
    v = np.zeros((d, sector.dimension))
    v[np.arange(d), sector.orbit] = 1.0 / np.sqrt(sector.sizes[sector.orbit])
    reduced = v.T @ expected @ v
    scale = max(1.0, np.abs(reduced).max())
    assert np.abs(sector.initial - reduced).max() <= 1e-13 * scale
    assert not sector.initial.flags.writeable


def test_sector_start_array_needs_no_dense_start_operator():
    # d = 4913 reduced to m = 969; the dense d x d start operator alone
    # would take 193 MB
    family, _ = _family("x^2 + y^2 + z^2 - 7", 16)
    tracemalloc.start()
    try:
        sector = family.sector
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (family.dimension, sector.group_order, sector.dimension) == (4913, 6, 969)
    assert "full_space" not in vars(family)
    assert peak < 32 * 10**6


@settings(max_examples=100, deadline=None)
@given(_families(), st.integers(1, 3), st.data())
def test_start_operator_is_applied_off_the_factors(family, columns, data):
    # H_I x from the k mode products, against the dense Kronecker sum
    d, cutoff = family.dimension, family.basis.cutoff
    entries = st.floats(-4.0, 4.0, allow_subnormal=False)
    x = data.draw(arrays(np.float64, (d, columns), elements=entries))
    initial = family.full_space.initial
    scale = np.abs(initial).sum(axis=1).max() * np.abs(x).max()
    # the dense sum is symmetrized: a factor tilted off symmetry differs
    # from it by half its defect in each of a row's cutoff off-diagonal
    # entries, per mode
    defect = sum(np.abs(f - f.T).max() / 2 for f in family.factors)
    tolerance = 1e-13 * max(1.0, scale) + defect * cutoff * np.abs(x).max()
    assert np.abs(family._apply_start(x) - initial @ x).max() <= tolerance


def test_complement_needs_no_dense_start_operator():
    # d = 2197 split into m = 1183 and 1014; the dense d x d start operator
    # alone would take 39 MB, and the complement's basis takes 18 MB
    family, _ = _family("x^2 + y^2 - z^2", 12)
    family.sector
    tracemalloc.start()
    try:
        complement = family.complement
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (family.dimension, family.sector.dimension, complement.dimension) == (
        2197,
        1183,
        1014,
    )
    assert "full_space" not in vars(family)
    assert peak < 64 * 10**6


@pytest.mark.parametrize(
    "factors, message",
    [
        ((np.array([[0.0, 1.0], [0.0, 0.0]]),), "not symmetric"),
        ((np.eye(2), np.array([[0.0, 1.0], [1.0 + 1e-11, 2.0]])), "not symmetric"),
        ((np.diag([1.0, np.nan]),), "finite"),
        ((np.eye(2), np.full((2, 2), np.inf)), "finite"),
        ((np.eye(2, dtype=np.complex128),), "must be real"),
        ((np.eye(2), np.array([[0.0, 1j], [-1j, 2.0]])), "must be real"),
        ((np.eye(2), np.eye(3)), r"shape \(3, 3\) is not \(2, 2\)"),
        ((np.ones((2, 3)),), "shape"),
        ((np.ones(2),), "shape"),
        ((), "need at least one mode"),
        ((np.eye(1),), "cutoff must be at least 1"),
    ],
    ids=[
        "non-symmetric", "non-symmetric-second", "nan", "inf", "complex",
        "complex-second", "mismatched", "non-square", "1-d", "no-mode", "1-level",
    ],
)
def test_family_refuses_a_bad_start_factor(factors, message):
    with pytest.raises(ValueError, match=message):
        AdiabaticFamily(factors, np.zeros(4, dtype=np.int64))


def test_family_keeps_read_only_copies_of_its_factors():
    factor = np.diag([0, 1, 2])
    family = AdiabaticFamily([factor, factor], np.zeros(9, dtype=np.int64))
    factor[0, 0] = 7
    assert isinstance(family.factors, tuple)
    assert [f.dtype for f in family.factors] == [np.float64] * 2
    assert all(not f.flags.writeable for f in family.factors)
    assert np.diag(family.factors[0]).tolist() == [0.0, 1.0, 2.0]
    assert family.basis == FockBasis(2, 2)
    replaced = dataclasses.replace(family, problem_values=np.arange(9))
    assert replaced.basis == family.basis
    assert replaced.problem_values.tolist() == list(range(9))


def test_state_outside_the_sector_uses_the_full_space():
    family, _ = _family("x + y - 5", 4)
    state = StateVector.basis_state(family.basis, (1, 0))
    assert not family.sector.holds(state.amplitudes)
    assert family.sector_for(state) is family.full_space
    assert family.full_space.dimension == family.dimension


def test_full_space_keeps_every_amplitude_bit_for_bit():
    # orbits of size 1: the orbit formulas multiply and divide by sqrt(1) = 1
    family, _ = _family("x - 3", 8)
    space = family.full_space
    assert space.group_order == 1
    rng = np.random.default_rng(7)
    amplitudes = rng.normal(size=family.dimension) + 1j * rng.normal(
        size=family.dimension
    )
    amplitudes /= np.linalg.norm(amplitudes)
    assert space.holds(amplitudes)
    coordinates = space.reduce(amplitudes)
    assert not np.shares_memory(coordinates, amplitudes)
    assert coordinates.tobytes() == amplitudes.tobytes()
    assert space.expand(coordinates).tobytes() == coordinates.tobytes()


# -- spectra ---------------------------------------------------------------------


def _failing_eigvalsh(monkeypatch, dimension=None):
    """Make ``np.linalg.eigvalsh`` fail on stacks of ``dimension`` (any if
    None) and solve the others."""
    eigvalsh = np.linalg.eigvalsh

    def solve(h):
        if dimension in (None, h.shape[-1]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvalsh(h)

    monkeypatch.setattr(np.linalg, "eigvalsh", solve)


def test_eigensolver_failure_names_the_s_values(monkeypatch):
    # the sector (m = 21) is solved first, 74 grid points per stacked
    # eigensolve, so on 147 points its first stack ends at s = 73/146
    family, _ = _family("x*y - 6", 5)
    _failing_eigvalsh(monkeypatch)
    with pytest.raises(RuntimeError, match=r"eigensolver failed for s in \[0\.0, 0\.5\]"):
        spectral_profile(family, grid_size=147)


def test_complement_eigensolver_failure_names_its_s_values(monkeypatch):
    # the complement (m = 15) takes 145 grid points per stack: s = 144/288
    family, _ = _family("x*y - 6", 5)
    assert (family.sector.dimension, family.complement.dimension) == (21, 15)
    _failing_eigvalsh(monkeypatch, dimension=15)
    with pytest.raises(RuntimeError, match=r"eigensolver failed for s in \[0\.0, 0\.5\]"):
        spectral_profile(family, grid_size=289)


def _helmert(orbit):
    """The complement's Helmert basis, one column per basis index i that is
    the j-th member (j >= 1) of its orbit, in ascending i: the orbit's
    earlier members at 1 and i at -j, over sqrt(j (j + 1))."""
    members = defaultdict(list)
    columns = []
    for i, a in enumerate(orbit.tolist()):
        j = len(members[a])
        if j:
            column = np.zeros(len(orbit))
            column[members[a]] = 1.0
            column[i] = -j
            columns.append(column / math.sqrt(j * (j + 1)))
        members[a].append(i)
    return np.column_stack(columns)


def _dense_profile(family, grid_size, levels=6):
    """The profile's fields from one dense full-space eigensolve per s."""
    s_values = np.linspace(0.0, 1.0, grid_size)
    degeneracy = family.ground_degeneracy()
    m = min(family.dimension, max(levels, degeneracy + 1))
    energies = np.linalg.eigvalsh(family.path_arrays(family.weights(s_values)))[:, :m]
    gaps = energies[:, 1] - energies[:, 0]
    class_gaps = energies[:, degeneracy] - energies[:, 0]
    # the first s within rounding of the minimum, as exact crossings tie
    tie = 1e-12 * max(1.0, np.abs(energies).max())
    s_gap = next(s for s, g in zip(s_values, gaps) if g <= gaps.min() + tie)
    s_class = next(s for s, g in zip(s_values, class_gaps) if g <= class_gaps.min() + tie)
    crossing = class_gaps.min() < GAP_TOL
    return energies, gaps, class_gaps, s_gap, s_class, crossing


@pytest.mark.parametrize(
    "text, cutoff, alphas, group_order",
    [
        ("x*y - 6", 5, 0.5, 2),
        ("x^2 + y^2 - z^2", 4, 0.5, 2),
        ("x + y + z - 3", 4, 0.5, 6),
        ("x*y*z - 8", 4, 0.5, 6),  # 7 zeros: a ground class in both blocks
        ("x - y", 4, 0.0, 2),  # a diagonal start operator
        ("x - 1", 8, 0.5, 1),
    ],
)
def test_block_spectrum_is_the_dense_spectrum(text, cutoff, alphas, group_order):
    family, _ = _family(text, cutoff, alphas=alphas)
    profile = spectral_profile(family, grid_size=21)
    energies, gaps, class_gaps, s_gap, s_class, crossing = _dense_profile(family, 21)
    scale = np.maximum(1.0, np.abs(energies))
    assert np.all(np.abs(profile.energies - energies) <= 1e-12 * scale)
    assert np.max(np.abs(profile.gaps - gaps)) <= 1e-11
    assert np.max(np.abs(profile.class_gaps - class_gaps)) <= 1e-11
    assert (profile.s_at_min_gap, profile.s_at_min_class_gap) == (s_gap, s_class)
    assert profile.ground_degeneracy == family.ground_degeneracy()
    assert profile.crossing_suspected == crossing
    # the merged levels are their own array, not a view of the 2m-wide merge
    assert profile.energies.flags.owndata

    sector = family.sector
    assert sector.group_order == group_order
    if sector.group_order == 1:
        # the full space is the only block, solved as one dense eigensolve
        assert np.array_equal(profile.energies, energies)
        return
    d = family.dimension
    q = _helmert(sector.orbit)
    assert sector.dimension + family.complement.dimension == d
    v = np.zeros((d, sector.dimension))
    v[np.arange(d), sector.orbit] = 1.0 / np.sqrt(sector.sizes[sector.orbit])
    basis = np.hstack([v, q])
    assert np.max(np.abs(basis.T @ basis - np.eye(d))) <= 1e-14
    initial = family.full_space.initial
    assert np.max(np.abs(v.T @ initial @ q)) <= HERMITICITY_TOL
    assert np.max(np.abs(family.complement.initial - q.T @ initial @ q)) <= 1e-12
    # H_P is constant on each orbit, so it stays diagonal on the complement
    problem = q.T @ (family.problem_values[:, None] * q)
    assert np.max(np.abs(problem - np.diag(family.complement.problem))) <= 1e-12 * max(
        1.0, family.problem_values.max()
    )


def test_s_at_min_class_gap_is_the_first_exact_tie():
    # a diagonal path: the class gap of x + y - 5 is 0 in exact arithmetic
    # for s in [0.25, 0.5], where the level n_x + n_y = 4 holds the lowest
    # five states, and rounding in the blocks must not move the reported s
    family, _ = _family("x + y - 5", 4, alphas=0.0)
    profile = spectral_profile(family)
    dense = _dense_profile(family, 101)
    assert profile.s_at_min_class_gap == dense[4] == 0.25
    assert profile.min_class_gap == pytest.approx(0.0, abs=1e-12)


def test_spectral_profile_logs_its_blocks(caplog):
    family, _ = _family("x^2 + y^2 - z^2", 4)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.hamiltonians"):
        spectral_profile(family, grid_size=3)
    messages = [
        r.getMessage() for r in caplog.records if r.name == "adiophantine.hamiltonians"
    ]
    assert messages == [
        "spectral_profile: basis dimension 125, block dimensions [75, 50], group order 2"
    ]


@pytest.mark.parametrize("length", [1, 101])
@pytest.mark.parametrize(
    "case", [("x + y - 5", 8), ("x - 20", 8)], ids=["sector+complement", "one-block"]
)
def test_profile_stack_length_moves_no_bit(monkeypatch, case, length):
    # one grid point per eigvalsh call, and the whole grid in one; by
    # default the sector (m = 45) takes 16 points per call, its complement
    # (m = 36) 25 and x - 20 (m = 9) 404, all 101 in one
    family, _ = _family(*case)
    reference = spectral_profile(family)
    monkeypatch.setattr(hamiltonians, "block_length", lambda bytes_per_point: length)
    profile = spectral_profile(family)
    for field in dataclasses.fields(profile):
        got, expected = (np.asarray(getattr(p, field.name)) for p in (profile, reference))
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_spectrum_at_endpoints():
    family, _ = _family("x - 1", 3, alphas=0.0)
    profile = spectral_profile(family, grid_size=3, levels=4)
    assert np.allclose(profile.energies[0], [0.0, 1.0, 2.0, 3.0])
    assert np.allclose(profile.energies[-1], sorted((1, 0, 1, 4)))


def test_min_gap_regression_anchor():
    # frozen from a dense eigensolve on the 101-point grid
    family, _ = _family("x - 1", 8, alphas=0.5)
    profile = spectral_profile(family, grid_size=101)
    assert profile.min_gap > 0
    assert profile.min_gap == pytest.approx(0.4689244272729287, abs=1e-6)
    assert profile.s_at_min_gap == pytest.approx(0.57, abs=1e-9)
    assert profile.ground_degeneracy == 1
    assert not profile.crossing_suspected


def test_degenerate_ground_level_uses_class_gap():
    family, _ = _family("2*x - 3", 8, alphas=None or 2**-0.5)
    profile = spectral_profile(family, grid_size=51)
    assert profile.ground_degeneracy == 2
    # the plain first gap closes at s=1 by construction
    assert profile.gaps[-1] == pytest.approx(0.0, abs=1e-12)
    assert profile.min_gap == pytest.approx(0.0, abs=1e-12)
    # the class gap stays open, so no crossing is flagged
    assert profile.min_class_gap > 1.5
    assert not profile.crossing_suspected


def test_profile_csv_shape():
    family, _ = _family("x - 1", 4)
    profile = spectral_profile(family, grid_size=11, levels=3)
    lines = profile.to_csv().strip().split("\n")
    assert lines[0] == "s,E_0,E_1,E_2,gap,ground_class_gap"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert len(first) == 6


def test_profile_grid_validation():
    family, _ = _family("x - 1", 4)
    with pytest.raises(ValueError):
        spectral_profile(family, grid_size=1)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"levels": 1}, "levels must be at least 2"),
        ({"levels": -3}, "levels must be at least 2"),
    ],
)
def test_profile_settings_are_refused(setting, message):
    family, _ = _family("x - 1", 4)
    with pytest.raises(ValueError, match=message):
        spectral_profile(family, grid_size=3, **setting)


def test_profile_grid_past_the_largest_dense_array_is_refused():
    # 6 levels of 1e9 points would be 48 GB; 8192^2 floats is the largest
    # dense array the program accepts
    family, _ = _family("x - 1", 8)
    with pytest.raises(ValueError, match=r"grid_size 1000000000 at 6 levels .* 48 GB"):
        spectral_profile(family, grid_size=10**9)
    limit = hamiltonians.MAX_DIMENSION**2 // 6
    with pytest.raises(ValueError, match=f"grid_size {limit + 1} at 6 levels"):
        spectral_profile(family, grid_size=limit + 1)


def test_family_ground_class():
    family, _ = _family("2*x - 3", 4)
    assert family.ground_class_indices() == (1, 2)
    assert family.ground_degeneracy() == 2
