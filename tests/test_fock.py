import itertools
import math
import warnings

import numpy as np
import pytest

from adiophantine.fock import (
    FockBasis,
    HermitianOperator,
    StateVector,
    TruncationWarning,
    annihilation,
    coherent_state,
    matvec,
)
from adiophantine.hamiltonians import AdiabaticFamily, start_factors


# -- basis indexing ----------------------------------------------------------


def test_index_tuple_bijection_exhaustive():
    for k, cutoff in [(1, 3), (2, 2), (3, 1), (2, 3)]:
        basis = FockBasis(k, cutoff)
        for i in range(basis.dimension):
            assert basis.index(basis.occupation(i)) == i
        for occ in itertools.product(range(cutoff + 1), repeat=k):
            assert basis.occupation(basis.index(occ)) == occ


def test_row_major_order_mode_one_slowest():
    basis = FockBasis(2, 1)
    assert [basis.occupation(i) for i in range(4)] == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert basis.occupations().tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]


def test_basis_validation():
    with pytest.raises(ValueError):
        FockBasis(0, 3)
    basis = FockBasis(2, 3)
    with pytest.raises(ValueError):
        basis.index((1,))
    with pytest.raises(ValueError):
        basis.index((1, 4))
    with pytest.raises(ValueError):
        basis.occupation(16)


# -- ladder and number operators ----------------------------------------------
# the number operator of a mode is diagonal, with the mode's column of
# basis.occupations() on the diagonal


def test_annihilation_matrix_elements():
    basis = FockBasis(1, 2)
    a = annihilation(basis, 0)
    assert a.shape == (3, 3)
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(math.sqrt(2))
    assert np.count_nonzero(a) == 2


def test_annihilation_kills_vacuum():
    basis = FockBasis(2, 2)
    vacuum = StateVector.basis_state(basis, (0, 0))
    for mode in range(2):
        assert np.linalg.norm(annihilation(basis, mode) @ vacuum.amplitudes) == 0.0


def test_number_operator_diagonals():
    basis = FockBasis(2, 1)
    assert basis.occupations()[:, 0].tolist() == [0, 0, 1, 1]
    assert basis.occupations()[:, 1].tolist() == [0, 1, 0, 1]


def test_number_operator_trace():
    basis = FockBasis(2, 3)
    for mode in range(2):
        trace = basis.occupations()[:, mode].sum()
        assert trace == basis.dimension * basis.cutoff / 2


def test_adagger_a_equals_number_everywhere():
    basis = FockBasis(2, 3)
    for mode in range(2):
        a = annihilation(basis, mode)
        n = a.conj().T @ a
        expected = np.diag(basis.occupations()[:, mode])
        assert np.max(np.abs(n - expected)) < 1e-12


def test_commutator_identity_away_from_cutoff_edge():
    basis = FockBasis(2, 3)
    for mode in range(2):
        a = annihilation(basis, mode)
        comm = a @ a.conj().T - a.conj().T @ a
        for i in range(basis.dimension):
            occ = basis.occupation(i)
            if all(n <= basis.cutoff - 1 for n in occ):
                column = np.zeros(basis.dimension)
                column[i] = 1.0
                assert np.max(np.abs(comm[:, i] - column)) < 1e-12


def test_mode_out_of_range():
    basis = FockBasis(2, 2)
    with pytest.raises(ValueError):
        annihilation(basis, 2)
    with pytest.raises(ValueError):
        annihilation(basis, -1)


# -- coherent states -----------------------------------------------------------


def test_coherent_zero_displacement_is_vacuum():
    basis = FockBasis(2, 3)
    state = coherent_state(basis, 0.0)
    expected = StateVector.basis_state(basis, (0, 0))
    assert np.allclose(state.amplitudes, expected.amplitudes)


def test_coherent_amplitude_ratio():
    basis = FockBasis(1, 30)
    state = coherent_state(basis, 1.0)
    assert state.amplitudes[1] / state.amplitudes[0] == pytest.approx(1.0, abs=1e-12)


def test_coherent_norm_and_vacuum_overlap():
    for alphas in [0.5, 1.0, (0.8, 0.3j)]:
        k = 1 if isinstance(alphas, (int, float)) else len(alphas)
        basis = FockBasis(k, 20)
        state = coherent_state(basis, alphas)
        assert abs(state.norm() - 1.0) < 1e-12
        alpha_list = (alphas,) * k if isinstance(alphas, (int, float)) else alphas
        # untruncated amplitude on vacuum over the truncated norm
        expected = 1.0
        for alpha in alpha_list:
            weights = [
                abs(alpha) ** (2 * n) / math.factorial(n) for n in range(21)
            ]
            expected *= math.exp(-abs(alpha) ** 2 / 2) / math.sqrt(
                sum(weights) * math.exp(-abs(alpha) ** 2)
            )
        assert abs(abs(state.amplitudes[0]) - expected) < 1e-9


def test_coherent_is_approximate_lowering_eigenstate():
    # truncation leaves a defect of exactly |alpha| * |c_N| / norm
    basis = FockBasis(1, 20)
    alpha = 0.5
    state = coherent_state(basis, alpha)
    residual = annihilation(basis, 0) @ state.amplitudes - alpha * state.amplitudes
    defect = np.linalg.norm(residual)
    coeffs = np.array(
        [alpha**n / math.sqrt(math.factorial(n)) for n in range(21)]
    )
    predicted = alpha * coeffs[-1] / np.linalg.norm(coeffs)
    assert defect < 1e-6
    assert defect == pytest.approx(predicted, rel=1e-9)


def test_coherent_truncation_warning():
    with pytest.warns(TruncationWarning):
        coherent_state(FockBasis(1, 4), 2.0)


def test_coherent_amplitudes_keep_their_bits():
    # the default displacement 2^-1/2; the kept weight is computed in log
    # space, the amplitudes as before
    state = coherent_state(FockBasis(1, 8), 2**-0.5)
    assert state.amplitudes.real.tolist() == [
        0.7788007844091861,
        0.550695315849138,
        0.275347657924569,
        0.11241021063093386,
        0.03974301110587074,
        0.012567843616791884,
        0.0036280239476439574,
        0.0009696301859353406,
        0.00024240754648383514,
    ]
    assert not state.amplitudes.imag.any()


def test_coherent_large_displacement_warns_and_overflow_is_refused():
    # e^(30^2) overflows a float: the kept weight is a Poisson sum in log space
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.warns(TruncationWarning, match="loses weight 1.000e"):
            state = coherent_state(FockBasis(1, 4), 30.0)
        assert state.norm() == pytest.approx(1.0)
        # each mode fits at cutoff 2, the two together would reach 2^1000
        with pytest.warns(TruncationWarning):
            coherent_state(FockBasis(1, 2), 1e50)
        with pytest.raises(ValueError, match="overflow the start state at cutoff 2"):
            coherent_state(FockBasis(2, 2), 1e50)
        with pytest.raises(ValueError, match="overflow the start state at cutoff 4"):
            coherent_state(FockBasis(1, 4), 1e308 + 1e308j)


# -- Hermitian operators ----------------------------------------------------------


def _random_state(basis, seed=0):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
    return StateVector(basis, amps / np.linalg.norm(amps))


def test_identity_apply():
    basis = FockBasis(1, 4)
    v = _random_state(basis)
    assert np.array_equal(matvec(np.eye(basis.dimension), v.amplitudes), v.amplitudes)


def test_linearity_of_sum():
    basis = FockBasis(2, 2)
    a = annihilation(basis, 0)
    n = np.diag(basis.occupations()[:, 1])
    h = HermitianOperator(basis, a + a.T + n)
    v = _random_state(basis, seed=3)
    w = _random_state(basis, seed=4)
    lhs = matvec(h.array, 2.0 * v.amplitudes - 1j * w.amplitudes)
    rhs = 2.0 * matvec(h.array, v.amplitudes) - 1j * matvec(h.array, w.amplitudes)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_real_dense_apply_matches_complex_reference():
    basis = FockBasis(2, 3)
    a = annihilation(basis, 0)
    real = HermitianOperator(basis, matrix=a + a.T)
    v = _random_state(basis, seed=5)
    got = matvec(real.array, v.amplitudes)
    assert got.dtype == np.complex128
    expected = real.array.astype(np.complex128) @ v.amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-15


def test_number_operator_scales_basis_states():
    basis = FockBasis(1, 5)
    counts = basis.occupations()[:, 0]
    for n in range(6):
        state = StateVector.basis_state(basis, (n,))
        assert np.array_equal(counts * state.amplitudes, n * state.amplitudes)


def test_hermitian_validation():
    basis = FockBasis(1, 1)
    with pytest.raises(ValueError, match="not symmetric"):
        HermitianOperator(basis, np.array([[0.0, 1.0], [0.0, 0.0]]))
    # an asymmetry within HERMITICITY_TOL is accepted and stored as given
    nearly = np.array([[0.0, 1.0], [1.0 + 1e-13, 2.0]])
    assert np.array_equal(HermitianOperator(basis, nearly).array, nearly)
    with pytest.raises(ValueError, match="not symmetric"):
        HermitianOperator(basis, np.array([[0.0, 1.0], [1.0 + 1e-11, 2.0]]))
    with pytest.raises(ValueError, match="finite"):
        HermitianOperator(basis, np.diag([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        HermitianOperator(basis, np.full((2, 2), np.inf))
    with pytest.raises(ValueError, match="shape"):
        HermitianOperator(basis, np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        HermitianOperator(basis, np.ones(2))
    h = HermitianOperator(basis, np.array([[0.0, 1.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="read-only"):
        h.array[0, 0] = 1.0


def test_real_input_stays_real():
    basis = FockBasis(1, 1)
    real = HermitianOperator(basis, matrix=np.array([[0.0, 1.0], [1.0, 2.0]]))
    assert real.array.dtype == np.float64
    # integer input is stored as float64
    integer = HermitianOperator(basis, np.diag([1, 0]))
    assert integer.array.dtype == np.float64


def test_complex_matrix_is_refused():
    basis = FockBasis(1, 1)
    with pytest.raises(ValueError, match="must be real"):
        HermitianOperator(basis, matrix=np.array([[0.0, 1j], [-1j, 2.0]]))
    # a complex dtype is refused even with zero imaginary parts
    with pytest.raises(ValueError, match="must be real"):
        HermitianOperator(basis, matrix=np.eye(2, dtype=np.complex128))


def test_diagonal_eigensystem_exact():
    # the zero-displacement start operator is a diagonal stored dense, here
    # unsorted and degenerate (1 + 0 = 0 + 1), and its eigensolves must stay
    # exact
    basis = FockBasis(2, 2)
    family = AdiabaticFamily(start_factors(basis, 0.0), np.zeros(9, dtype=np.int64))
    h = family.hamiltonian(0.0)
    assert np.diag(h.array).tolist() == [0, 1, 2, 1, 2, 3, 2, 3, 4]
    spectrum = [0.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    assert h.eigenvalues().tolist() == spectrum
    evals, evecs = np.linalg.eigh(h.array)
    assert evals.tolist() == spectrum
    assert np.array_equal(np.abs(evecs), np.abs(evecs).round())
    assert np.array_equal(h.array @ evecs, evecs * evals)

