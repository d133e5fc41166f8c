import warnings

import numpy as np
import pytest

from adiophantine.diophantine import min_over_box, parse_equation
from adiophantine.fock import (
    FockBasis,
    HermitianOperator,
    TruncationWarning,
    annihilation,
)
from adiophantine.hamiltonians import (
    DEFAULT_ALPHA,
    AdiabaticFamily,
    ProblemScaleError,
    build_initial_hamiltonian,
    build_problem_hamiltonian,
    linear_schedule,
    problem_diagonal,
    smoothstep_schedule,
    spectral_profile,
)


def _family(text, cutoff, alphas=0.5):
    p = parse_equation(text)
    basis = FockBasis(p.num_vars, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        return AdiabaticFamily.from_polynomial(p, basis, alphas=alphas)


# -- problem Hamiltonian -------------------------------------------------------


def test_problem_diagonal_examples():
    basis = FockBasis(1, 3)
    assert problem_diagonal(parse_equation("x - 1"), basis) == (1, 0, 1, 4)
    assert problem_diagonal(parse_equation("2*x - 3"), basis) == (9, 1, 1, 9)


def test_problem_hamiltonian_is_diagonal_and_nonnegative():
    basis = FockBasis(2, 4)
    h = build_problem_hamiltonian(parse_equation("x*y - 6"), basis)
    assert h.is_diagonal
    assert np.all(h.diagonal >= 0)


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
        build_problem_hamiltonian(parse_equation("x + y"), FockBasis(1, 3))


def test_problem_scale_guard():
    with pytest.raises(ProblemScaleError):
        build_problem_hamiltonian(parse_equation("3000000000*x"), FockBasis(1, 8))


# -- start Hamiltonian ---------------------------------------------------------


def test_initial_hamiltonian_zero_displacement():
    basis = FockBasis(1, 3)
    h, ground = build_initial_hamiltonian(basis, 0.0)
    assert h.is_diagonal
    assert h.diagonal.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.allclose(ground.amplitudes, [1, 0, 0, 0])


def test_initial_hamiltonian_displaced_ground_state():
    basis = FockBasis(1, 16)
    h, nominal = build_initial_hamiltonian(basis, 0.5)
    evals, evecs = h.eigensystem()
    assert evals[0] < 1e-8
    overlap = abs(np.vdot(evecs[:, 0], nominal.amplitudes))
    assert overlap > 1 - 1e-6
    rayleigh = np.vdot(nominal.amplitudes, h.apply(nominal).amplitudes).real
    assert rayleigh < 1e-6


def test_initial_hamiltonian_default_alpha_rayleigh():
    basis = FockBasis(2, 8)
    h, nominal = build_initial_hamiltonian(basis)
    rayleigh = np.vdot(nominal.amplitudes, h.apply(nominal).amplitudes).real
    assert 0 <= rayleigh < 1e-6


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
@pytest.mark.parametrize("k, cutoff", [(1, 8), (2, 5), (3, 4)])
def test_initial_hamiltonian_is_exact_kronecker_sum(k, cutoff):
    # reference: d x d products of the full-space ladder matrices
    basis = FockBasis(k, cutoff)
    eye = np.eye(basis.dimension)
    expected = np.zeros((basis.dimension, basis.dimension), dtype=np.complex128)
    for mode in range(k):
        shifted = annihilation(basis, mode) - DEFAULT_ALPHA * eye
        expected += shifted.conj().T @ shifted
    h, _ = build_initial_hamiltonian(basis)
    assert np.array_equal(h.to_matrix(), expected)


# -- interpolation -------------------------------------------------------------


def test_endpoints_exact():
    family, _ = _family("x - 1", 6)
    assert np.array_equal(
        family.hamiltonian(0.0).to_matrix(), family.initial.to_matrix()
    )
    assert np.array_equal(
        family.hamiltonian(1.0).to_matrix(), family.problem.to_matrix()
    )


def test_interpolation_range_check():
    family, _ = _family("x - 1", 4)
    with pytest.raises(ValueError):
        family.hamiltonian(-0.01)
    with pytest.raises(ValueError):
        family.hamiltonian(1.01)


def test_hermiticity_along_path():
    family, _ = _family("x + y - 5", 3)
    for s in np.random.default_rng(5).uniform(0, 1, 10):
        assert family.hamiltonian(float(s)).hermiticity_defect() <= 1e-12


def test_midpoint_weyl_bounds():
    family, _ = _family("x - 1", 8)
    mid = family.hamiltonian(0.5).eigenvalues()
    lo = family.initial.eigenvalues()
    hi = family.problem.eigenvalues()
    assert mid[0] >= 0.5 * (lo[0] + hi[0]) - 1e-10
    assert mid[-1] <= 0.5 * (lo[-1] + hi[-1]) + 1e-10


def test_smoothstep_schedule_monotone_and_endpoint_exact():
    assert smoothstep_schedule(0.0) == (1.0, 0.0)
    assert smoothstep_schedule(1.0) == (0.0, 1.0)
    weights = [smoothstep_schedule(s)[1] for s in np.linspace(0, 1, 50)]
    assert all(b >= a for a, b in zip(weights, weights[1:]))
    family, _ = _family("x - 1", 4)
    stepped = AdiabaticFamily(
        family.initial,
        family.problem,
        schedule=smoothstep_schedule,
        problem_values=family.problem_values,
    )
    assert np.array_equal(
        stepped.hamiltonian(1.0).to_matrix(), family.problem.to_matrix()
    )


def _nan_after_half(s):
    return (1.0 - s, s if s < 0.5 else float("nan"))


def test_non_finite_schedule_weight_raises():
    family, _ = _family("x - 1", 4)
    broken = AdiabaticFamily(
        family.initial, family.problem, schedule=_nan_after_half
    )
    assert broken.weights(0.25) == (0.75, 0.25)
    with pytest.raises(ValueError, match="not finite"):
        broken.hamiltonian(0.75)
    with pytest.raises(ValueError, match="not finite"):
        spectral_profile(broken, grid_size=5)


# -- spectra ---------------------------------------------------------------------


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


def test_family_ground_class():
    family, _ = _family("2*x - 3", 4)
    assert family.ground_class_indices() == (1, 2)
    assert family.ground_degeneracy() == 2
