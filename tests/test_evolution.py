import contextlib
import itertools
import logging
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from unittest import mock

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adiophantine import evolution
from adiophantine.diophantine import Polynomial, parse_equation
from adiophantine.evolution import (
    SPLIT_MIN_DIMENSION,
    SPLIT_TOLERANCE,
    EvolutionAborted,
    EvolutionParams,
    Integrator,
    evolve,
)
from adiophantine.fock import (
    FockBasis,
    StateVector,
    TruncationWarning,
    matvec,
)
from adiophantine.hamiltonians import (
    DEFAULT_ALPHA,
    AdiabaticFamily,
    block_length,
    start_factors,
)
from test_hamiltonians import _families

RK4 = Integrator.RK4
MIDEXP = Integrator.MIDPOINT_EXPONENTIAL
SPLIT = Integrator.SPLIT
CF4 = Integrator.CF4


def _diagonal_family(energies):
    family = AdiabaticFamily((np.diag(energies),), energies)
    return family, family.basis


def _two_level():
    """x - 1 on a 2-level space; exact eigenvector start avoids the
    truncation warning the displaced coherent state would raise here."""
    basis = FockBasis(1, 1)
    family = AdiabaticFamily(start_factors(basis, 0.5), (1, 0))
    _, vectors = np.linalg.eigh(family.full_space.initial)
    return family, StateVector(basis, vectors[:, 0])


def _suite_family():
    p = parse_equation("x - 1")
    return AdiabaticFamily.from_polynomial(p, FockBasis(1, 8), alphas=0.5)


# -- parameter handling --------------------------------------------------------


def test_params_validation():
    with pytest.raises(ValueError):
        EvolutionParams(total_time=0.0, step=0.1)
    with pytest.raises(ValueError):
        EvolutionParams(total_time=1.0, step=0.0)
    with pytest.raises(ValueError):
        EvolutionParams(total_time=1.0, step=2.0)
    with pytest.raises(ValueError):
        EvolutionParams(total_time=1.0, step=0.1, record_grid=1)
    # a run time or step count that is not finite cannot be stepped
    with pytest.raises(ValueError, match="total_time must be positive and finite"):
        EvolutionParams(total_time=math.inf, step=1.0)
    with pytest.raises(ValueError, match="total_time must be positive and finite"):
        EvolutionParams(total_time=math.nan, step=1.0)
    with pytest.raises(ValueError, match=r"count 1e\+308 / 1e-10 overflows"):
        EvolutionParams(1e308, 1e-10)


def test_step_count_must_fit_int64():
    # 6.4e202 steps is finite, but no step index of it fits int64
    with pytest.raises(ValueError, match=r"count 640\.0 / 1e-200 overflows"):
        EvolutionParams(640.0, 1e-200)
    with pytest.raises(ValueError, match=r"count 9\.223372036854776e\+18 / 1\.0 overflows"):
        EvolutionParams(2.0**63, 1.0)
    # never evolved: only step counts and the grid of the last steps are built
    assert EvolutionParams(2.0**62, 1.0).step_count() == 2**62
    # the largest float below 2^63 is 2^63 - 1024 steps, all full
    largest = EvolutionParams(float(np.nextafter(2.0**63, 0.0)), 1.0)
    assert largest.step_count() == 2**63 - 1024
    starts, sizes, ends = largest.step_grid(2**63 - 1026, 2**63 - 1024)
    assert ends[-1] == largest.total_time


def test_partial_final_step_lands_exactly_on_total_time():
    family, basis = _diagonal_family([0, 1, 2])
    init = StateVector(basis, np.ones(3) / np.sqrt(3))
    params = EvolutionParams(total_time=1.0, step=0.3, record_grid=2)
    trace = evolve(family, init, params)
    assert trace.times[-1] == 1.0
    # constant diagonal generator: the midpoint propagator is exact per step
    expected = np.exp(-1j * np.array([0.0, 1.0, 2.0])) * init.amplitudes
    assert np.max(np.abs(trace.final_state.amplitudes - expected)) < 1e-12


def test_integer_step_count_has_no_spurious_partial_step():
    params = EvolutionParams(total_time=1.0, step=1.0 / 3.0)
    starts, sizes = params.step_starts_and_sizes()
    assert len(sizes) == 3


def _listed_step_grid(total_time, step):
    """Reference: the step grid as Python lists, one step at a time."""
    full = int(math.floor(total_time / step + 1e-9))
    remainder = max(total_time - full * step, 0.0)
    starts = [j * step for j in range(full)]
    sizes = [step] * full
    if remainder > 1e-9 * step:
        starts.append(full * step)
        sizes.append(remainder)
    return starts, sizes


@settings(max_examples=200, deadline=None)
@given(
    total_time=st.floats(0.01, 700.0),
    steps_per_run=st.floats(1.0, 3000.0),
    block=st.integers(1, 500),
)
# h = 0.02: a partial last step at T = 10.01, none at T = 10 and T = 40,
# where the last step's start plus its size is 40.00000000000001
@example(total_time=10.01, steps_per_run=500.5, block=1)
@example(total_time=10.01, steps_per_run=500.5, block=7)
@example(total_time=10.0, steps_per_run=500.0, block=1)
@example(total_time=10.0, steps_per_run=500.0, block=7)
@example(total_time=40.0, steps_per_run=2000.0, block=1)
@example(total_time=40.0, steps_per_run=2000.0, block=7)
def test_step_grid_blocks_are_bitwise_the_listed_grid(
    total_time, steps_per_run, block
):
    params = EvolutionParams(total_time, total_time / steps_per_run)
    starts, sizes = _listed_step_grid(params.total_time, params.step)
    assert params.step_count() == len(sizes)
    assert params.step_starts_and_sizes() == (starts, sizes)
    n = params.step_count()
    for first in range(0, n, block):
        stop = min(first + block, n)
        block_starts, block_sizes, block_ends = params.step_grid(first, stop)
        assert block_starts.tolist() == starts[first:stop]
        assert block_sizes.tolist() == sizes[first:stop]
        # every step ends at its start plus its size but the run's last,
        # which ends at total_time exactly
        ends = [t + h for t, h in zip(starts[first:stop], sizes[first:stop])]
        if stop == n:
            ends[-1] = params.total_time
        assert block_ends.tolist() == ends


@pytest.mark.parametrize("total_time, step", [(1.0, 0.3), (40.01, 0.02), (0.5, 0.5)])
def test_step_grid_keeps_the_partial_final_step(total_time, step):
    params = EvolutionParams(total_time, step)
    starts, sizes, _ = params.step_grid(0, params.step_count())
    assert (starts.tolist(), sizes.tolist()) == _listed_step_grid(total_time, step)
    assert starts[-1] + sizes[-1] == pytest.approx(total_time, abs=1e-12)


# -- basic behavior --------------------------------------------------------------


@pytest.mark.parametrize("integrator", [RK4, MIDEXP])
def test_diagonal_generator_leaves_probabilities_invariant(integrator):
    family, basis = _diagonal_family([0, 1, 3])
    rng = np.random.default_rng(2)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    init = StateVector(basis, amps / np.linalg.norm(amps))
    params = EvolutionParams(total_time=1.0, step=1e-3, integrator=integrator)
    trace = evolve(family, init, params)
    assert np.max(np.abs(trace.probabilities[-1] - trace.probabilities[0])) < 1e-12


def test_one_step_generator_bound():
    family, basis = _diagonal_family([0, 3])
    init = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2))
    for h in (0.1, 0.01):
        trace = evolve(family, init, EvolutionParams(h, h, record_grid=2))
        delta = np.linalg.norm(trace.final_state.amplitudes - init.amplitudes)
        assert delta <= 3 * h + 10 * h**2


def test_global_phase_covariance():
    family, start = _two_level()
    phase = np.exp(0.7j)
    rotated = StateVector(start.basis, phase * start.amplitudes)
    params = EvolutionParams(total_time=2.0, step=0.01)
    p1 = evolve(family, start, params).final_probabilities()
    p2 = evolve(family, rotated, params).final_probabilities()
    assert np.max(np.abs(p1 - p2)) < 1e-12


def test_initial_state_must_be_normalized():
    family, basis = _diagonal_family([0, 1])
    bad = StateVector(basis, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        evolve(family, bad, EvolutionParams(1.0, 0.1))


# -- phases ----------------------------------------------------------------------

_EPS = np.finfo(np.float64).eps


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.floats(-1e6, 1e6) | st.integers(-2000, 2000).map(lambda k: k * (math.pi / 2)),
        min_size=1,
        max_size=50,
    )
)
@example([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
@example([math.pi / 2, -math.pi / 2, math.pi, -math.pi, 1.5 * math.pi, 2 * math.pi])
@example([1e6, -1e6, 999999.9999999999, 3.0e5 * math.pi])
def test_unit_phases_are_the_complex_exp_within_a_few_ulp(angles):
    # multiples of pi/2 put the half angle next to a pole of tan or a zero;
    # the function takes its angles as scratch
    angles = np.array(angles)
    phases = evolution._unit_phases(angles.copy())
    bound = 4 * _EPS * np.maximum(1.0, np.abs(angles))
    assert np.all(np.abs(phases - np.exp(1j * angles)) <= bound)
    assert np.all(np.abs(np.abs(phases) - 1.0) <= 4 * _EPS)


def test_unit_phases_of_non_finite_angles_are_not_finite():
    with np.errstate(invalid="ignore"):
        phases = evolution._unit_phases(np.array([np.inf, -np.inf, np.nan]))
    assert not np.isfinite(phases).any()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40), st.integers(1, 80), st.integers(1, 2), st.integers(0, 2**32 - 1)
)
def test_unit_phases_written_into_a_strang_table_view_are_its_own_bits(n, m, r, seed):
    # the Strang check's table: rows of (m, r) phases, of which a block
    # fills the first n; written whole, and one run's strided column.  The
    # function takes its angles as scratch, so each call gets a copy
    rows = n + 3
    angles = np.random.default_rng(seed).uniform(-1e3, 1e3, (rows, m, r))

    def phases(angles, out=None):
        return evolution._unit_phases(angles.copy(), out)

    table = np.full((rows, m, r), np.nan + 1j * np.nan)
    phases(angles[:n], table[:n])
    assert table[:n].tobytes() == phases(angles[:n]).tobytes()
    assert np.isnan(table[n:]).all()
    column = table[:, :, r - 1]
    phases(angles[:, :, 0], column)
    assert column.tobytes() == phases(angles[:, :, 0]).tobytes()
    if r == 2:
        assert table[:n, :, 0].tobytes() == phases(angles[:n, :, 0]).tobytes()


# -- unitarity and drift -----------------------------------------------------------


def test_midpoint_exponential_preserves_norm():
    family, start = _suite_family()
    trace = evolve(family, start, EvolutionParams(80.0, 0.02, record_grid=2))
    assert trace.norm_errors[-1] <= 1e-12


def test_rk4_drift_shrinks_by_about_sixteen_per_halving():
    p = parse_equation("x - 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        family, start = AdiabaticFamily.from_polynomial(p, FockBasis(1, 4))
    drifts = {}
    for h in (0.2, 0.1):
        trace = evolve(
            family, start, EvolutionParams(1.0, h, integrator=RK4, record_grid=2)
        )
        drifts[h] = trace.norm_errors[-1]
    factor = drifts[0.2] / drifts[0.1]
    assert 8 <= factor <= 32


def test_rk4_norm_drift_aborts_with_advisory():
    family, basis = _diagonal_family([0, 50])
    init = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2))
    # h * 50 = 2.5 is inside RK4's stability limit 2 sqrt(2), so the run
    # starts, and its first step leaves the drift limit
    message = (
        r"norm drift 2\.068e-01 at t=0\.05 exceeds 0\.001; "
        r"retry with a smaller step, e\.g\. 0\.025"
    )
    with pytest.raises(EvolutionAborted, match=message):
        evolve(family, init, EvolutionParams(10.0, 0.05, integrator=RK4))


def _stepwise_rk4_abort(family, init, params):
    """The abort of a one-step-at-a-time RK4 run in the arithmetic of
    ``_stagewise_rk4``, with the norm checked after every step as one dot
    product of the state's floats; None if no step leaves the drift limit."""
    sector = family.sector_for(init)
    psi = sector.reduce(init.amplitudes)
    starts, sizes, ends = params.step_grid(0, params.step_count())

    def derivative(t, psi):
        wi, wp = family.weights(min(max(t / params.total_time, 0.0), 1.0))
        problem_part = ((-1j * wp) * sector.problem) * psi
        return (-1j * wi) * matvec(sector.initial, psi) + problem_part

    for t, h, end in zip(starts.tolist(), sizes.tolist(), ends.tolist()):
        k1 = derivative(t, psi)
        k2 = derivative(t + 0.5 * h, psi + (0.5 * h) * k1)
        k3 = derivative(t + 0.5 * h, psi + (0.5 * h) * k2)
        k4 = derivative(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        floats = psi.view(np.float64)
        drift = abs(math.sqrt(floats.dot(floats)) - 1.0)
        if not drift <= evolution.NORM_DRIFT_LIMIT:
            return f"norm drift {drift:.3e} at t={end} exceeds"
    return None


@pytest.mark.parametrize("length", [None, 1, 7])
def test_rk4_abort_is_the_stepwise_one_at_any_block_length(monkeypatch, length):
    # h * 50 = 0.5 is inside RK4's stability interval, where |R(ix)| < 1:
    # the norm only falls, and passes the drift limit at t = 0.2, inside
    # the third block of 7 steps, inside the one block of the default length
    family, basis = _diagonal_family([0, 50])
    init = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2))
    params = EvolutionParams(10.0, 0.01, integrator=RK4)
    if length is not None:
        monkeypatch.setattr(evolution, "block_length", lambda step_bytes: length)
    expected = _stepwise_rk4_abort(family, init, params)
    assert expected == "norm drift 1.050e-03 at t=0.2 exceeds"
    with pytest.raises(EvolutionAborted) as aborted:
        evolve(family, init, params)
    assert str(aborted.value).startswith(expected + " 0.001; retry with a smaller step")


def test_rk4_unstable_step_refused_before_the_run(monkeypatch):
    # x - 20 at cutoff 8: max H_P = 400, so h = 0.02 gives h * 400 = 8 > 2 sqrt(2)
    p = parse_equation("x - 20")
    family, start = AdiabaticFamily.from_polynomial(p, FockBasis(1, 8))
    with pytest.raises(
        EvolutionAborted, match=r"stability limit.*smaller step.* at most 0\.00707107"
    ):
        evolve(family, start, EvolutionParams(10.0, 0.02, integrator=RK4))
    # the guard accepts the step it names; near the limit RK4 damps the top
    # levels, so the drift check needs a loose limit here
    monkeypatch.setattr(evolution, "NORM_DRIFT_LIMIT", 1.0)
    loose = dict(integrator=RK4, record_grid=2)
    evolve(family, start, EvolutionParams(0.1, 0.00707, **loose))
    with pytest.raises(EvolutionAborted, match="stability limit"):
        evolve(family, start, EvolutionParams(0.1, 0.00708, **loose))


def _refused(family, step):
    """Whether RK4 refuses ``step`` at w_I = 1, w_P = 0, where the bound
    is that of ||H_I|| alone."""
    try:
        evolution._check_rk4_stable(family, step, np.array([[1.0, 0.0]]))
    except EvolutionAborted:
        return True
    return False


def _dense_limit(family, slack=0.0):
    """The step at which the largest absolute row sum of the dense start
    operator, less ``slack``, reaches RK4's stability limit."""
    row_sum = np.abs(family.full_space.initial).sum(axis=1).max()
    return evolution.RK4_STABILITY_LIMIT / (row_sum - slack)


@settings(max_examples=100, deadline=None)
@given(_families())
def test_rk4_factor_bound_is_never_laxer_than_the_dense_one(family):
    # a step past the dense bound's limit by more than rounding is refused.
    # The dense sum is symmetrized: a factor tilted off symmetry (within
    # HERMITICITY_TOL) may have a row sum below its symmetric part's by
    # half its defect in each of the row's cutoff off-diagonal entries
    cutoff = family.basis.cutoff
    slack = sum(np.abs(f - f.T).max() / 2 for f in family.factors) * cutoff
    assume(np.abs(family.full_space.initial).sum(axis=1).max() > 2 * slack)
    assert _refused(family, _dense_limit(family, slack) * (1 + 1e-12))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 6),
    st.lists(st.floats(0.0, 3.0), min_size=3, max_size=3),
)
def test_rk4_factor_bound_is_the_dense_one_for_start_factors(k, cutoff, alphas):
    # every start factor is PSD, so its diagonal is non-negative and the
    # Kronecker sum's row sums add the factors' without cancellation
    basis = FockBasis(k, cutoff)
    family = AdiabaticFamily(
        start_factors(basis, alphas[:k]), np.zeros(basis.dimension, dtype=np.int64)
    )
    limit = _dense_limit(family)
    assert _refused(family, limit * (1 + 1e-12))
    assert not _refused(family, limit * (1 - 1e-12))


def test_rk4_refusal_in_a_sector_builds_no_dense_start_operator():
    # d = 4913 reduced to m = 969; max H_P = 761^2, so h = 0.01 is refused.
    # The dense d x d start operator alone would take 193 MB
    family, start = _sector_case("x^2 + y^2 + z^2 - 7", 16)
    tracemalloc.start()
    try:
        with pytest.raises(EvolutionAborted, match="stability limit"):
            evolve(family, start, EvolutionParams(1.0, 0.01, integrator=RK4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert family.sector.dimension == 969
    assert "full_space" not in vars(family)
    assert peak < 32 * 10**6


# -- cross-integrator agreement ------------------------------------------------------


def test_two_level_cross_integrator_agreement():
    family, start = _two_level()
    p_rk = evolve(
        family, start, EvolutionParams(2.0, 1e-3, integrator=RK4, record_grid=2)
    ).final_probabilities()
    p_me = evolve(
        family, start, EvolutionParams(2.0, 1e-3, record_grid=2)
    ).final_probabilities()
    assert np.max(np.abs(p_rk - p_me)) < 1e-6


def test_suite_instance_cross_integrator_agreement_slow():
    # x - 1, alpha=0.5, cutoff 8, T=100, h=1e-3: the two schemes must agree
    family, start = _suite_family()
    p_rk = evolve(
        family, start, EvolutionParams(100.0, 1e-3, integrator=RK4, record_grid=2)
    ).final_probabilities()
    p_me = evolve(
        family, start, EvolutionParams(100.0, 1e-3, record_grid=2)
    ).final_probabilities()
    assert np.max(np.abs(p_rk - p_me)) < 1e-6


@pytest.mark.parametrize(
    "equation, cutoff, alphas, params, m",
    [
        ("x*y*z - 8", 4, DEFAULT_ALPHA, EvolutionParams(10.0, 0.02, SPLIT), 35),
        # 344 steps, the last one 0.01 long
        ("x - 20", 8, DEFAULT_ALPHA, EvolutionParams(10.3, 0.03, MIDEXP), 9),
        ("x + y - 5", 8, DEFAULT_ALPHA, EvolutionParams(10.0, 0.01, RK4), 45),
        # unequal displacements: the start state lies in no sector
        ("x + y - 5", 8, (0.7, 0.5), EvolutionParams(10.0, 0.02, SPLIT), 81),
    ],
    ids=["split-sector", "midexp-partial-step", "rk4", "split-full-space"],
)
# the coherent state loses 5.2e-4 of its weight to cutoff 4 on three modes
@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
def test_final_state_does_not_depend_on_record_grid(
    equation, cutoff, alphas, params, m
):
    p = parse_equation(equation)
    family, start = AdiabaticFamily.from_polynomial(
        p, FockBasis(p.num_vars, cutoff), alphas=alphas
    )
    assert family.sector_for(start).dimension == m
    coarse = evolve(family, start, replace(params, record_grid=2))
    fine = evolve(family, start, replace(params, record_grid=101))
    assert np.array_equal(coarse.final_state.amplitudes, fine.final_state.amplitudes)
    assert replace(coarse.params, record_grid=101) == fine.params
    assert (len(coarse.times), len(fine.times)) == (2, 101)


# -- symmetric sector --------------------------------------------------------------


def _full_space_reference(family, init, params):
    """Reference: the integrator's step on the dense d x d path."""
    h_initial = family.full_space.initial
    h_problem = np.diag(family.problem_values)

    def hamiltonian(t):
        w_initial, w_problem = family.weights(min(t / params.total_time, 1.0))
        return w_initial * h_initial + w_problem * h_problem

    psi = init.amplitudes.copy()
    for t, h in zip(*params.step_starts_and_sizes()):
        if params.integrator is RK4:
            k1 = -1j * hamiltonian(t) @ psi
            k2 = -1j * hamiltonian(t + 0.5 * h) @ (psi + 0.5 * h * k1)
            k3 = -1j * hamiltonian(t + 0.5 * h) @ (psi + 0.5 * h * k2)
            k4 = -1j * hamiltonian(t + h) @ (psi + h * k3)
            psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        else:
            energies, vectors = np.linalg.eigh(hamiltonian(t + 0.5 * h))
            psi = vectors @ (np.exp(-1j * h * energies) * (vectors.T @ psi))
    return psi


def _sector_case(text, cutoff, alphas=DEFAULT_ALPHA, occupation=None):
    p = parse_equation(text)
    basis = FockBasis(p.num_vars, cutoff)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        family, start = AdiabaticFamily.from_polynomial(p, basis, alphas=alphas)
    if occupation is not None:
        start = StateVector.basis_state(basis, occupation)
    return family, start


@pytest.mark.parametrize(
    "case, sector_dimension, params",
    [
        (("x + y - 5", 8), 45, EvolutionParams(10.0, 0.02, record_grid=2)),
        (("x*y - z", 4), 75, EvolutionParams(10.0, 0.02, record_grid=2)),
        (("x*y*z - 8", 4), 35, EvolutionParams(10.0, 0.02, record_grid=2)),
        # start state not symmetric
        (("x + y - 5", 4, DEFAULT_ALPHA, (1, 0)), 25, EvolutionParams(10.0, 0.02)),
        # trivial group
        (("x + y - 5", 4, (0.7, 0.5)), 25, EvolutionParams(10.0, 0.02)),
        (("x + y - 5", 8), 45, EvolutionParams(2.0, 0.01, integrator=RK4)),
    ],
    ids=["x+y-5@8", "xy-z@4", "xyz-8@4", "not-symmetric", "trivial-group", "rk4"],
)
def test_sector_evolution_matches_full_space(case, sector_dimension, params):
    family, start = _sector_case(*case)
    assert family.sector_for(start).dimension == sector_dimension
    trace = evolve(family, start, params)
    expected = _full_space_reference(family, start, params)
    got = trace.final_state.amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-12
    expected_probabilities = expected.real**2 + expected.imag**2
    assert np.max(np.abs(trace.probabilities[-1] - expected_probabilities)) <= 1e-12


def _end_if_non_finite(psi, j, end, params):
    """The time after step j (counted from 1) if it left ``psi`` not finite;
    the last step ends at ``total_time`` exactly, as in ``evolve``."""
    if np.isfinite(psi).all():
        return None
    return params.total_time if j == params.step_count() else end


def _stepwise_midpoint(family, init, params):
    """Reference: one eigh per midpoint step on the sector arrays, in the
    arithmetic of ``evolve``, whose phase function it shares (its bits are
    not what this reference checks); returns the final state, the probabilities
    recorded on ``evolve``'s grid and the time after the first step whose
    state is not finite (None if every step's is)."""
    sector = family.sector_for(init)
    indices = np.arange(sector.dimension)
    starts, sizes = params.step_starts_and_sizes()
    record_after = {round(x) for x in np.linspace(0, len(sizes), params.record_grid)}
    psi = sector.reduce(init.amplitudes)
    recorded = []

    def record():
        full = sector.expand(psi)
        recorded.append(full.real**2 + full.imag**2)

    record()  # the grid starts at step 0 and ends at the last step
    non_finite_at = None
    for j, (t, h) in enumerate(zip(starts, sizes), start=1):
        mid = min(max((t + 0.5 * h) / params.total_time, 0.0), 1.0)
        w_initial, w_problem = family.weights(mid)
        generator = w_initial * sector.initial
        generator[indices, indices] += w_problem * sector.problem
        energies, vectors = np.linalg.eigh(generator)
        phases = evolution._unit_phases(-h * energies)
        psi = matvec(vectors, phases * matvec(vectors.T, psi))
        non_finite_at = non_finite_at or _end_if_non_finite(psi, j, t + h, params)
        if j in record_after:
            record()
    return sector.expand(psi), np.array(recorded), non_finite_at


# CF4's weights a1,2 = 1/4 -+ sqrt(3)/6 and Gauss nodes 1/2 -+ sqrt(3)/6,
# as fractions of a step
_A1, _A2 = (3 - 2 * math.sqrt(3)) / 12, (3 + 2 * math.sqrt(3)) / 12
_C1, _C2 = (3 - math.sqrt(3)) / 6, (3 + math.sqrt(3)) / 6


def _stepwise_cf4(family, init, params):
    """Reference: one CF4 step at a time on the sector arrays, with H built
    at each Gauss node on its own and one eigh of each exponent, a2 H(t1) +
    a1 H(t2) applied first and a1 H(t1) + a2 H(t2) second; returns the
    final state, the probabilities recorded on ``evolve``'s grid and the
    time after the first step whose state is not finite (None if every
    step's is), where it stops: the exponents of a later step may add
    infinities of both signs, which ``eigh`` refuses."""
    sector = family.sector_for(init)
    indices = np.arange(sector.dimension)
    starts, sizes = params.step_starts_and_sizes()
    record_after = {round(x) for x in np.linspace(0, len(sizes), params.record_grid)}
    psi = sector.reduce(init.amplitudes)
    recorded = []

    def hamiltonian(t):
        w_initial, w_problem = family.weights(min(t / params.total_time, 1.0))
        generator = w_initial * sector.initial
        generator[indices, indices] += w_problem * sector.problem
        return generator

    def record():
        full = sector.expand(psi)
        recorded.append(full.real**2 + full.imag**2)

    record()
    non_finite_at = None
    for j, (t, h) in enumerate(zip(starts, sizes), start=1):
        first, second = hamiltonian(t + _C1 * h), hamiltonian(t + _C2 * h)
        for exponent in (_A2 * first + _A1 * second, _A1 * first + _A2 * second):
            energies, vectors = np.linalg.eigh(exponent)
            psi = matvec(vectors, np.exp(-1j * h * energies) * matvec(vectors.T, psi))
        if (non_finite_at := _end_if_non_finite(psi, j, t + h, params)) is not None:
            break
        if j in record_after:
            record()
    return sector.expand(psi), np.array(recorded), non_finite_at


@pytest.mark.parametrize(
    "case, total_time, step",
    [
        # several eigensolve blocks of 50 steps and a partial final step
        (("x - 20", 8), 40.01, 0.08),
        (("x^2 + y^2 - 25", 5), 10.0, 0.04),
        # zero displacement: a diagonal start operator
        (("x - 1", 4, 0.0), 10.0, 0.08),
    ],
    ids=["x-20@8", "x2+y2-25@5", "diagonal"],
)
def test_cf4_is_the_stepwise_cf4(case, total_time, step):
    family, start = _sector_case(*case)
    params = EvolutionParams(total_time, step, integrator=CF4, record_grid=11)
    trace = evolve(family, start, params)
    assert trace.params == params
    final, recorded, _ = _stepwise_cf4(family, start, params)
    assert np.max(np.abs(trace.final_state.amplitudes - final)) <= 1e-12
    assert np.max(np.abs(trace.probabilities - recorded)) <= 1e-12
    assert trace.norm_errors.max() <= 1e-12


def test_cf4_weight_rows_are_the_weighted_hamiltonians():
    # each exponent's one (w_I, w_P) row gives a2 H(t1) + a1 H(t2), then
    # a1 H(t1) + a2 H(t2), up to rounding, for steps spread over [0, 1]
    family, start = _sector_case("x^2 - 64", 8)
    sector = family.sector_for(start)
    h = 0.1
    nodes = np.linspace(0.0, 0.9, 7)[:, None] + h * evolution._GAUSS_NODES
    assert np.allclose(evolution._GAUSS_NODES, [_C1, _C2], rtol=0, atol=1e-15)
    weights = family.weights(nodes.ravel()).reshape(-1, 2, 2)
    rows = (evolution._CF4_EXPONENTS @ weights).reshape(-1, 2)
    combined = family.path_arrays(rows, sector).reshape(-1, 2, 9, 9)
    at_nodes = family.path_arrays(weights.reshape(-1, 2), sector).reshape(-1, 2, 9, 9)
    first, second = at_nodes[:, 0], at_nodes[:, 1]
    expected = np.stack([_A2 * first + _A1 * second, _A1 * first + _A2 * second], axis=1)
    norm = np.abs(np.linalg.eigvalsh(at_nodes)).max()
    assert np.max(np.abs(combined - expected)) <= 1e-13 * norm


@pytest.mark.parametrize(
    "case, total_time",
    [
        # many eigensolve blocks and a partial final step
        (("x - 20", 8), 40.01),
        (("x^2 + y^2 - 25", 5), 20.0),
        (("x*y*z - 8", 4), 10.0),
        # zero displacement: a diagonal start operator, stored dense
        (("x - 1", 4, 0.0), 10.0),
    ],
    ids=["x-20@8", "x2+y2-25@5", "xyz-8@4", "diagonal"],
)
def test_midpoint_is_bitwise_the_stepwise_eigensolve(case, total_time):
    family, start = _sector_case(*case)
    params = EvolutionParams(total_time, 0.02)
    trace = evolve(family, start, params)
    final, recorded, _ = _stepwise_midpoint(family, start, params)
    assert np.array_equal(trace.final_state.amplitudes, final)
    assert np.array_equal(trace.probabilities, recorded)


def _stagewise_rk4(family, init, params):
    """Reference: one RK4 step at a time on the sector arrays, with scalar
    ``family.weights`` at each stage, in the arithmetic of ``evolve``;
    returns the final state and the probabilities recorded on ``evolve``'s
    grid."""
    sector = family.sector_for(init)
    starts, sizes = params.step_starts_and_sizes()
    record_after = {round(x) for x in np.linspace(0, len(sizes), params.record_grid)}
    psi = sector.reduce(init.amplitudes)
    recorded = []

    def record():
        full = sector.expand(psi)
        recorded.append(full.real**2 + full.imag**2)

    def derivative(t, psi):
        wi, wp = family.weights(min(max(t / params.total_time, 0.0), 1.0))
        problem_part = ((-1j * wp) * sector.problem) * psi
        return (-1j * wi) * matvec(sector.initial, psi) + problem_part

    record()  # the grid starts at step 0 and ends at the last step
    for j, (t, h) in enumerate(zip(starts, sizes), start=1):
        k1 = derivative(t, psi)
        k2 = derivative(t + 0.5 * h, psi + (0.5 * h) * k1)
        k3 = derivative(t + 0.5 * h, psi + (0.5 * h) * k2)
        k4 = derivative(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if j in record_after:
            record()
    return sector.expand(psi), np.array(recorded)


@pytest.mark.parametrize(
    "case", [("x + y - 5", 8), ("x - 1", 8)], ids=["x+y-5@8", "x-1@8"]
)
def test_rk4_is_bitwise_the_stagewise_reference(case):
    family, start = _sector_case(*case)
    params = EvolutionParams(2.0, 0.01, integrator=RK4)
    trace = evolve(family, start, params)
    final, recorded = _stagewise_rk4(family, start, params)
    assert np.array_equal(trace.final_state.amplitudes, final)
    assert np.array_equal(trace.probabilities, recorded)


@pytest.mark.parametrize(
    "case, params, logged",
    [
        # 256 KiB // (16 * 35**2) midpoint steps per stacked eigensolve
        (
            ("x*y*z - 8", 4),
            EvolutionParams(0.1, 0.02, record_grid=2),
            "basis dimension 125, sector dimension 35, group order 6, block length 13",
        ),
        # RK4 adds only its 32 bytes of step grid: 256 KiB // 32
        (
            ("x + y - 5", 8),
            EvolutionParams(0.1, 0.005, integrator=RK4),
            "basis dimension 81, sector dimension 45, group order 2, block length 8192",
        ),
        (
            ("x + 2*y + 3*z - 7", 4),
            EvolutionParams(0.1, 0.005, integrator=RK4),
            "basis dimension 125, sector dimension 125, group order 1, block length 8192",
        ),
        # CF4 stacks two H(s) and their eigenvectors: 256 KiB // (32 * 9**2)
        (
            ("x - 20", 8),
            EvolutionParams(0.1, 0.02, integrator=CF4),
            "basis dimension 9, sector dimension 9, group order 1, block length 101",
        ),
        # the Strang check: two rows of 21 complex phases per run, both
        # runs, then one alone; its outcome is logged next
        (
            ("x^2 + y^2 - 25", 5),
            EvolutionParams(0.1, 0.02, integrator=SPLIT),
            "basis dimension 36, sector dimension 21, group order 2, block length 195; "
            "Strang runs at steps 0.02 and 0.01 stepped together, then the second "
            "alone in blocks of 390",
        ),
    ],
    ids=["midexp-m35", "rk4-m45", "rk4-m125", "cf4-m9", "split-m21"],
)
def test_sector_is_logged(caplog, case, params, logged):
    family, start = _sector_case(*case)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        evolve(family, start, params)
    messages = [r.getMessage() for r in caplog.records if r.name == "adiophantine.evolution"]
    assert messages[0] == "evolve: " + logged
    assert len(messages) == 1 + (params.integrator is SPLIT)


def test_strang_blocks_are_256_kib_of_phases():
    # 32 m r bytes per iteration of r runs, as the split's own budget was
    pairs = [(m, r) for m in range(1, 8193) for r in (1, 2)]
    lengths = [block_length(32 * m * r) for m, r in pairs]
    assert lengths == [max(1, 262144 // (32 * m * r)) for m, r in pairs]


# -- trace output ----------------------------------------------------------------


def test_trace_record_grid_and_csv():
    family, start = _suite_family()
    trace = evolve(family, start, EvolutionParams(5.0, 0.05, record_grid=11))
    assert len(trace.times) == 11
    assert trace.times[0] == 0.0
    assert trace.times[-1] == 5.0
    for row, err in zip(trace.probabilities, trace.norm_errors):
        assert abs(row.sum() - 1.0) <= 2 * err + 1e-12
    csv = trace.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "t,norm_error,p_top1,p_top2,top1_index"
    assert len(lines) == 12
    dump = trace.probabilities_json_dict()
    assert len(dump["probabilities"]) == 11


def test_record_grid_beyond_the_step_count_records_every_step():
    # 500 steps: a grid of more than 501 points rounds to every step as well
    family, start = _sector_case("x - 1", 8)
    params = EvolutionParams(10.0, 0.02, MIDEXP, record_grid=501)
    every = evolve(family, start, params)
    finer = evolve(family, start, replace(params, record_grid=10**6))
    assert len(every.times) == 501
    assert np.array_equal(finer.times, every.times)
    assert np.array_equal(finer.probabilities, every.probabilities)
    assert np.array_equal(finer.norm_errors, every.norm_errors)
    assert np.array_equal(finer.final_state.amplitudes, every.final_state.amplitudes)


def test_error_slopes_against_cross_references():
    family, start = _two_level()
    steps = np.array([0.2, 0.1, 0.05])
    reference_for = {
        RK4: float(
            evolve(family, start, EvolutionParams(2.0, 1e-5, record_grid=2))
            .final_probabilities()[1]
        ),
        MIDEXP: float(
            evolve(
                family,
                start,
                EvolutionParams(2.0, 5e-4, integrator=RK4, record_grid=2),
            ).final_probabilities()[1]
        ),
    }
    for integrator, expected_slope in [(RK4, 4.0), (MIDEXP, 2.0)]:
        errors = []
        for h in steps:
            value = evolve(
                family,
                start,
                EvolutionParams(2.0, float(h), integrator=integrator, record_grid=2),
            ).final_probabilities()[1]
            errors.append(abs(float(value) - reference_for[integrator]))
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert slope == pytest.approx(expected_slope, abs=0.5)


@pytest.mark.parametrize("integrator", [RK4, MIDEXP, CF4])
def test_non_finite_schedule_weight_fails_loudly(integrator):
    family, start = _suite_family()
    broken = replace(
        family, schedule=lambda s: (1.0 - s, np.where(s < 0.5, s, np.nan))
    )
    params = EvolutionParams(1.0, 0.1, integrator=integrator, record_grid=2)
    with pytest.raises(ValueError, match="not finite"):
        evolve(broken, start, params)


@pytest.mark.parametrize("scale, t_abort", [(1e306, 0.5), (1e308, 0.1)])
def test_overflowing_generator_aborts_at_its_step(scale, t_abort):
    # max H_P is 400, so the problem weight overflows at the first midpoint s
    # with scale * s * 400 > 1.8e308: s = 0.45 and s = 0.05
    family, start = _sector_case("x - 20", 8)
    broken = replace(family, schedule=lambda s: (1.0 - s, scale * s))
    message = f"non-finite amplitudes at t={t_abort};"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvolutionAborted, match=message):
            evolve(broken, start, EvolutionParams(1.0, 0.1))


@pytest.mark.parametrize(
    "case, sector_dimension, t_abort",
    [
        # max H_P is 625: the problem weight overflows at s = 0.35, the
        # fourth of the 10 steps, all in one block of 37
        (("x^2 + y^2 - 25", 5), 21, 0.4),
        # zero displacement, max H_P 400: overflows at s = 0.45, the fifth
        # of the 10 steps, in one block of 202
        (("x - 20", 8, 0.0), 9, 0.5),
    ],
    ids=["dense", "diagonal"],
)
def test_mid_block_abort_step(case, sector_dimension, t_abort):
    family, start = _sector_case(*case)
    sector = family.sector_for(start)
    assert sector.dimension == sector_dimension
    assert block_length(16 * sector_dimension**2) > 10
    broken = replace(family, schedule=lambda s: (1.0 - s, 1e306 * s))
    message = f"non-finite amplitudes at t={t_abort};"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvolutionAborted, match=message):
            evolve(broken, start, EvolutionParams(1.0, 0.1))


# -- checked split-operator propagation ----------------------------------------------


def _class_probabilities(family, trace):
    classes = np.unique(family.problem_values, return_inverse=True)[1]
    return np.bincount(classes, weights=trace.final_probabilities())


def _assert_bitwise_equal(trace, reference):
    assert trace.params == reference.params
    assert np.array_equal(trace.final_state.amplitudes, reference.final_state.amplitudes)
    assert np.array_equal(trace.times, reference.times)
    assert np.array_equal(trace.probabilities, reference.probabilities)
    assert np.array_equal(trace.norm_errors, reference.norm_errors)


def _split_checks(messages):
    """The logged class disagreement (inf for a Strang run that failed) and
    the closing choice of each split check among ``messages``, in order."""
    checks = []
    for line in messages:
        if line.startswith("evolve split: class disagreement "):
            disagreement = float(line.split("class disagreement ")[1].split()[0])
            checks.append((disagreement, line.split("; ")[-1]))
        elif line.startswith("evolve split: split failed ("):
            checks.append((math.inf, line.split("; ")[-1]))
    return checks


@contextlib.contextmanager
def _debug_messages():
    """The DEBUG messages of ``adiophantine.evolution`` logged in the block;
    for hypothesis tests, which take no caplog."""
    messages = []
    handler = logging.Handler(logging.DEBUG)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("adiophantine.evolution")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


@pytest.mark.parametrize(
    "build, total_time, disagreements, returned",
    [
        # m = 13 and 45 >= SPLIT_MIN_DIMENSION, but the Strang runs at h and
        # h/2 disagree on a class probability; the retry's runs at h/2 and
        # h/4 agree, and its h/4 run is returned
        (partial(_sector_case, "x^2 - 64", 12), 20.0, (3.8e-2, 9.6e-4), None),
        (partial(_sector_case, "x^2 + y^2 - 25", 8), 160.0, (1.6e-2, 5.0e-5), None),
        # the retry is refused too: CF4 at h
        (partial(_sector_case, "(x-7)*(x-8)", 12), 10.0, (8.3e-2, 4.9e-2), 0.02),
    ],
    ids=["x2-64@12", "x2+y2-25@8", "(x-7)(x-8)@12"],
)
def test_refused_split_retries_at_the_half_step_then_runs_cf4(
    caplog, build, total_time, disagreements, returned
):
    family, start = build()
    params = EvolutionParams(total_time, 0.02, integrator=SPLIT)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        trace = evolve(family, start, params)
    first, retry = _split_checks(r.getMessage() for r in caplog.records)
    assert first[0] == pytest.approx(disagreements[0], rel=0.05)
    assert retry[0] == pytest.approx(disagreements[1], rel=0.05)
    assert first[1] == "retrying at the half step"
    if returned is None:
        assert retry[1] == "returning the Strang run at the half step"
        # a check at h/2 accepts at once and returns the same h/4 run
        reference = evolve(family, start, replace(params, step=0.01))
        assert trace.params == replace(params, step=0.005)
    else:
        assert retry[1] == f"returning the CF4 run at step {returned!r}"
        reference = evolve(family, start, replace(params, integrator=CF4, step=returned))
    _assert_bitwise_equal(trace, reference)


@pytest.mark.parametrize(
    "case, total_time",
    # refused twice; CF4 at 4h is off the reference by 6.4e-4 and 4.3e-3
    [(("(x-7)*(x-8)", 12), 10.0), (("-38*x^3 - 5", 12), 20.0)],
    ids=["(x-7)(x-8)@12", "-38x3-5@12"],
)
def test_twice_refused_split_is_within_the_tolerance_of_a_fine_run(case, total_time):
    family, start = _sector_case(*case)
    params = EvolutionParams(total_time, 0.02, SPLIT, record_grid=2)
    trace = evolve(family, start, params)
    assert trace.params == replace(params, integrator=CF4)
    reference = evolve(family, start, replace(params, integrator=CF4, step=0.0025))
    error = np.abs(_class_probabilities(family, trace) - _class_probabilities(family, reference))
    assert error.max() <= SPLIT_TOLERANCE


@st.composite
def _above_the_bar(draw):
    """An equation of one or two variables, of degree at most 2 and small
    coefficients, and a cutoff at which its sector has m >= 12 when every
    variable occurs."""
    names = draw(st.sampled_from([("x",), ("x", "y")]))
    exponents = [e for e in itertools.product(range(3), repeat=len(names)) if sum(e) <= 2]
    terms = {e: draw(st.integers(-3, 3)) for e in exponents}
    terms[(0,) * len(names)] = draw(st.integers(-40, 40))
    cutoff = draw(st.sampled_from([11, 12, 13] if len(names) == 1 else [4, 5]))
    return Polynomial.from_terms(terms, names), cutoff


@settings(max_examples=25, deadline=None)
@given(_above_the_bar(), st.sampled_from([2.0, 5.0, 10.0]), st.sampled_from([2, 101]))
# refused twice: CF4 at h
@example((parse_equation("(x-7)*(x-8)"), 12), 10.0, 101)
# refused once, then the retry's h/4 run
@example((parse_equation("x^2 - 64"), 12), 20.0, 2)
def test_split_returns_a_checked_strang_run_or_the_cf4_run(equation, total_time, record_grid):
    p, cutoff = equation
    assume(p.num_vars > 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        family, start = AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))
    assume(family.sector_for(start).dimension >= SPLIT_MIN_DIMENSION)
    params = EvolutionParams(total_time, 0.02, SPLIT, record_grid)
    run = mock.patch.object(evolution, "_run", wraps=evolution._run)
    with _debug_messages() as messages, run as runs:
        trace = evolve(family, start, params)
    # no midpoint exponential runs, and at most the one CF4 run
    assert [call.args[3].integrator for call in runs.call_args_list] in ([], [CF4])
    checks = _split_checks(messages)
    *refused, (last, _) = checks
    assert all(disagreement > SPLIT_TOLERANCE for disagreement, _ in refused)
    if trace.params.integrator is SPLIT:
        # the h/2 run of the check at h, or the h/4 run of the retry at h/2
        assert len(checks) in (1, 2)
        assert last <= SPLIT_TOLERANCE
        assert trace.params == replace(params, step=params.step / 2 ** len(checks))
    else:
        assert len(checks) == 2 and last > SPLIT_TOLERANCE
        _assert_bitwise_equal(trace, evolve(family, start, replace(params, integrator=CF4)))


@pytest.mark.parametrize(
    "case, params, cf4_step",
    [
        # a decide rung: two snapshots, so CF4 steps at 4h
        (("x - 1", 8), EvolutionParams(10.0, 0.02, SPLIT, record_grid=2), 0.08),
        # 101 snapshots 0.05 apart (the CLI's evolve default): CF4 at h
        (("x - 1", 6), EvolutionParams(5.0, 0.05, SPLIT), 0.05),
        # 41 snapshots 0.5 apart: 4h
        (("x^2 - 64", 8), EvolutionParams(20.0, 0.1, SPLIT, record_grid=41), 0.4),
        # 201 snapshots 0.05 apart: the record grid's spacing, under 4h
        (("(x-7)*(x-8)", 8), EvolutionParams(10.0, 0.02, SPLIT, record_grid=201), 0.05),
        # 4h would pass the whole run: one step of T
        (("x - 20", 8), EvolutionParams(0.1, 0.05, SPLIT, record_grid=2), 0.1),
    ],
    ids=["x-1@8-rung", "x-1@6-evolve", "x2-64@8-41", "(x-7)(x-8)@8-201", "x-20@8-short"],
)
def test_split_below_the_bar_is_the_bitwise_cf4_run(caplog, case, params, cf4_step):
    family, start = _sector_case(*case)
    m = family.sector_for(start).dimension
    assert m < SPLIT_MIN_DIMENSION
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        trace = evolve(family, start, params)
    cf4 = replace(params, integrator=CF4, step=cf4_step)
    assert trace.params == cf4
    assert len(trace.times) == min(params.record_grid, cf4.step_count() + 1)
    _assert_bitwise_equal(trace, evolve(family, start, cf4))
    lines = [r.getMessage() for r in caplog.records if r.name == "adiophantine.evolution"]
    # no split check: one line names what runs, then the CF4 run's own
    assert not any(line.startswith("evolve split") for line in lines)
    assert lines[0] == (
        f"evolve: sector dimension {m} is below {SPLIT_MIN_DIMENSION}; CF4 runs at "
        f"step {cf4_step!r} for the split at {params.step!r}"
    )
    assert lines[1].startswith(f"evolve: basis dimension {family.dimension}, ")


def test_split_is_exact_on_a_diagonal_path():
    # zero displacement: H_I and H_P are diagonal and commute, so the Strang
    # step is exact, and its h/2 run returns the exact diagonal phases
    family, _ = _sector_case("x - 3", 12, 0.0)
    rng = np.random.default_rng(3)
    amplitudes = rng.normal(size=13) + 1j * rng.normal(size=13)
    start = StateVector(family.basis, amplitudes / np.linalg.norm(amplitudes))
    trace = evolve(family, start, EvolutionParams(10.0, 0.02, integrator=SPLIT))
    assert trace.params == EvolutionParams(10.0, 0.01, integrator=SPLIT)
    # integral of w_I H_I + w_P H_P over t in [0, T] for the linear schedule
    energies = 5.0 * (np.diag(family.full_space.initial) + family.problem_values)
    expected = np.exp(-1j * energies) * start.amplitudes
    assert np.max(np.abs(trace.final_state.amplitudes - expected)) <= 1e-12


def _stepwise_strang(family, init, params):
    """Reference: one unmerged Strang step at a time on the sector arrays,
    e^{-i(h/2) w_P H_P} e^{-i h w_I H_I} e^{-i(h/2) w_P H_P} with the
    weights at the step midpoint and e^{-i h w_I H_I} from a fresh eigh of
    H_I; returns the final state, the probabilities recorded on
    ``evolve``'s grid and the time after the first step whose state is not
    finite (None if every step's is)."""
    sector = family.sector_for(init)
    energies, vectors = np.linalg.eigh(sector.initial)
    starts, sizes = params.step_starts_and_sizes()
    grid = np.linspace(0, len(sizes), params.record_grid)
    record_after = set(np.round(grid).astype(int).tolist())
    psi = sector.reduce(init.amplitudes)
    recorded = []

    def record():
        full = sector.expand(psi)
        recorded.append(full.real**2 + full.imag**2)

    record()
    non_finite_at = None
    for j, (t, h) in enumerate(zip(starts, sizes), start=1):
        w_initial, w_problem = family.weights(min((t + 0.5 * h) / params.total_time, 1.0))
        half = np.exp(-0.5j * h * w_problem * sector.problem)
        psi = half * psi
        psi = vectors @ (np.exp(-1j * h * w_initial * energies) * (vectors.T @ psi))
        psi = half * psi
        non_finite_at = non_finite_at or _end_if_non_finite(psi, j, t + h, params)
        if j in record_after:
            record()
    return sector.expand(psi), np.array(recorded), non_finite_at


def test_split_runs_where_it_pays_and_agrees():
    family, start = _sector_case("x - 3", 12)
    assert family.sector_for(start).dimension == 13
    trace = evolve(family, start, EvolutionParams(20.0, 0.02, integrator=SPLIT))
    assert trace.params == EvolutionParams(20.0, 0.01, integrator=SPLIT)
    assert len(trace.times) == 101
    midpoint = evolve(family, start, EvolutionParams(20.0, 0.02))
    assert np.max(np.abs(trace.final_probabilities() - midpoint.final_probabilities())) <= 1e-5
    assert trace.norm_errors.max() <= 1e-12


@pytest.mark.parametrize(
    "case, total_time",
    [(("x^2 + y^2 - 25", 5), 10.0), (("x*y*z - 8", 4), 10.0), (("x - 20", 12), 10.01)],
    ids=["x2+y2-25@5", "xyz-8@4", "x-20@12-partial-step"],
)
def test_strang_run_is_the_stepwise_strang(case, total_time):
    # the merged half phases and per-block phases are the Strang step
    family, start = _sector_case(*case)
    params = EvolutionParams(total_time, 0.01, integrator=SPLIT, record_grid=11)
    trace = evolve(family, start, replace(params, step=0.02))
    assert trace.params == params
    final, recorded, _ = _stepwise_strang(family, start, params)
    assert np.max(np.abs(trace.final_state.amplitudes - final)) <= 1e-12
    assert np.max(np.abs(trace.probabilities - recorded)) <= 1e-12
    split_p = _class_probabilities(family, trace)
    midpoint_p = _class_probabilities(family, evolve(family, start, EvolutionParams(total_time, 0.02)))
    assert np.max(np.abs(split_p - midpoint_p)) <= SPLIT_TOLERANCE


@pytest.mark.parametrize("record_grid", [11, 10**6])
@pytest.mark.parametrize(
    "case",
    [("x^2 + y^2 - 25", 5), ("x*y*z - 8", 4), ("x - 20", 12)],
    ids=["x2+y2-25@5", "xyz-8@4", "x-20@12"],
)
def test_shared_loop_steps_the_two_stepwise_strang_runs(caplog, case, record_grid):
    # T = 10.01 ends both runs with a partial step: 501 steps of h = 0.02
    # and 1001 of h/2, so the h run leaves the loop before the h/2 run is
    # half way through
    family, start = _sector_case(*case)
    params = EvolutionParams(10.01, 0.02, integrator=SPLIT, record_grid=record_grid)
    half = replace(params, step=0.01)
    assert (params.step_count(), half.step_count()) == (501, 1001)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        trace = evolve(family, start, params)
    assert trace.params == half
    final, recorded, _ = _stepwise_strang(family, start, half)
    assert len(trace.times) == len(recorded) == min(record_grid, 1002)
    assert np.max(np.abs(trace.final_state.amplitudes - final)) <= 1e-12
    assert np.max(np.abs(trace.probabilities - recorded)) <= 1e-12
    # the logged class disagreement is that of the stepwise runs
    coarse, _, _ = _stepwise_strang(family, start, replace(params, record_grid=2))
    classes = np.unique(family.problem_values, return_inverse=True)[1]
    coarse_p, fine_p = (
        np.bincount(classes, weights=np.abs(a) ** 2) for a in (coarse, final)
    )
    (check,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evolve split")]
    logged = float(check.split("class disagreement ")[1].split()[0])
    assert logged == pytest.approx(np.abs(coarse_p - fine_p).max(), rel=1e-3)


@pytest.mark.parametrize("record_grid", [101, 10**6])
@pytest.mark.parametrize("length", [1, 7, 10**4])
@pytest.mark.parametrize(
    "case, params",
    [
        (("x*y*z - 8", 4), EvolutionParams(10.01, 0.02, integrator=SPLIT)),
        (("x^2 + y^2 - 25", 5), EvolutionParams(10.01, 0.02, integrator=SPLIT)),
        (("x - 20", 8), EvolutionParams(40.01, 0.02)),
        (("x + y - 5", 8), EvolutionParams(2.01, 0.005, integrator=RK4)),
        # below the bar the split is CF4
        (("x - 20", 8), EvolutionParams(40.01, 0.02, integrator=SPLIT)),
    ],
    ids=[
        "split-xyz-8@4",
        "split-x2+y2-25@5",
        "midexp-x-20@8",
        "rk4-x+y-5@8",
        "cf4-x-20@8",
    ],
)
def test_block_length_moves_no_bit(monkeypatch, case, params, length, record_grid):
    # one step per block is a check after every step; 7 puts snapshots on
    # block edges and inside blocks; 10**4 takes each run in one block, and
    # the split's first block then ends at the h run's last step
    family, start = _sector_case(*case)
    params = replace(params, record_grid=record_grid)
    reference = evolve(family, start, params)
    if params.integrator is SPLIT:
        # the Strang run at h/2; below the bar CF4, at 4h on 101 snapshots
        # 0.4 apart and at h on 10**6
        cf4_step = 4 * params.step if record_grid == 101 else params.step
        below = family.sector_for(start).dimension < SPLIT_MIN_DIMENSION
        assert reference.params.step == (cf4_step if below else params.step / 2)
    monkeypatch.setattr(evolution, "block_length", lambda step_bytes: length)
    _assert_bitwise_equal(evolve(family, start, params), reference)


def test_passing_replay_continues_the_run(caplog, monkeypatch):
    # a start state 0.9e-10 off unit norm (within the start tolerance of
    # 1e-10) and a drift limit of 1.5e-10: every block end is off by more
    # than half the limit, so every block is replayed, and no step fails
    family, start = _sector_case("x - 3", 12)
    start = StateVector(family.basis, start.amplitudes * (1 + 0.9e-10))
    params = EvolutionParams(1.0, 0.02, integrator=SPLIT)
    reference = evolve(family, start, params)
    monkeypatch.setattr(evolution, "NORM_DRIFT_LIMIT", 1.5e-10)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        trace = evolve(family, start, params)
    _assert_bitwise_equal(trace, reference)
    replays = [r.getMessage() for r in caplog.records if "replayed" in r.getMessage()]
    # 50 steps of both runs in one block, then 50 of the h/2 run alone in
    # another
    assert block_length(32 * 13 * 2) >= 50
    assert replays == [
        "evolve: run at step 0.02 replayed steps 0 to 49 one at a time; "
        "no step fails the check",
        "evolve: run at step 0.01 replayed steps 50 to 99 one at a time; "
        "no step fails the check",
    ]


@pytest.mark.parametrize(
    "case, scale, t_abort, split_failures",
    [
        # the split phases take h/2 of an overflowing weight and stay unit
        # modulus, so both checks are refused and the abort arrives through
        # the CF4 run at h (4h would pass the record grid's spacing 0.01)
        (("x^2 + y^2 - 25", 5), 1e306, 0.6, None),
        (("x - 20", 12), 1e306, 1.0, None),
        # the merged half phases overflow while both runs step, and the
        # coarser run is the first to go non-finite in each check
        (
            ("x^2 + y^2 - 25", 5),
            1e308,
            0.1,
            (
                "Strang run at step 0.1: non-finite amplitudes at t=0.2;",
                "Strang run at step 0.05: non-finite amplitudes at t=0.15000000000000002;",
            ),
        ),
        (
            ("x - 20", 12),
            1e307,
            0.2,
            (
                "Strang run at step 0.1: non-finite amplitudes at t=0.6;",
                "Strang run at step 0.05: non-finite amplitudes at t=0.9500000000000001;",
            ),
        ),
    ],
    ids=["x2+y2-25@5", "x-20@12", "x2+y2-25@5-h-run-aborts", "x-20@12-h-run-aborts"],
)
def test_split_overflow_aborts_as_the_cf4_run(caplog, case, scale, t_abort, split_failures):
    family, start = _sector_case(*case)
    assert family.sector_for(start).dimension >= SPLIT_MIN_DIMENSION
    broken = replace(family, schedule=lambda s: (1.0 - s, scale * s))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(EvolutionAborted) as cf4:
            evolve(broken, start, EvolutionParams(1.0, 0.1, integrator=CF4))
        with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
            with pytest.raises(EvolutionAborted) as split:
                evolve(broken, start, EvolutionParams(1.0, 0.1, integrator=SPLIT))
    assert f"non-finite amplitudes at t={t_abort};" in str(cf4.value)
    assert str(split.value) == str(cf4.value)
    checks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evolve split")]
    assert len(checks) == 2
    assert checks[0].endswith("retrying at the half step")
    assert checks[1].endswith("returning the CF4 run at step 0.1")
    for check, failure in zip(checks, split_failures or (None, None)):
        if failure is None:
            assert check.startswith("evolve split: class disagreement ")
        else:
            assert check.startswith(f"evolve split: split failed ({failure} ")


def test_split_abort_in_the_half_step_run_is_logged(caplog):
    # a problem weight that overflows the merged half phases only at s =
    # 0.075, the midpoint of the second step at h/2: the run at h/2, which
    # both checks step, meets it, and the runs at h and h/4 (midpoints 0.05,
    # 0.15, .. and 0.0125, 0.0375, ..) and CF4 (nodes 0.021, 0.079, ..) never
    family, start = _sector_case("x - 20", 12)
    broken = replace(
        family,
        schedule=lambda s: (1.0 - s, np.where(np.abs(s - 0.075) < 1e-9, 1e308, s)),
    )
    params = EvolutionParams(1.0, 0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
            trace = evolve(broken, start, replace(params, integrator=SPLIT))
    checks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evolve split")]
    failure = (
        "evolve split: split failed (Strang run at step 0.05: "
        "non-finite amplitudes at t=0.1; reduce the step size (currently 0.05)) "
    )
    assert [check.startswith(failure) for check in checks] == [True, True]
    assert checks[0].endswith("between steps 0.1 and 0.05, tolerance 0.001; retrying at the half step")
    assert checks[1].endswith(
        "between steps 0.05 and 0.025, tolerance 0.001; returning the CF4 run at step 0.1"
    )
    _assert_bitwise_equal(trace, evolve(broken, start, replace(params, integrator=CF4)))


def test_split_non_finite_weight_goes_to_cf4_without_a_retry(caplog):
    # no step mends a non-finite schedule weight: the first check's failure
    # leads to the CF4 run at h, which raises its own error
    family, start = _sector_case("x - 20", 12)
    assert family.sector_for(start).dimension >= SPLIT_MIN_DIMENSION
    broken = replace(family, schedule=lambda s: (1.0 - s, np.where(s < 0.5, s, np.nan)))
    params = EvolutionParams(1.0, 0.1, integrator=SPLIT, record_grid=2)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        with pytest.raises(ValueError, match="not finite"):
            evolve(broken, start, params)
    checks = [r.getMessage() for r in caplog.records if r.getMessage().startswith("evolve split")]
    assert len(checks) == 1
    assert checks[0].startswith("evolve split: split failed (")
    assert "not finite" in checks[0]
    assert checks[0].endswith(
        "between steps 0.1 and 0.05, tolerance 0.001; returning the CF4 run at step 0.1"
    )
    # the check and the CF4 run log their dimensions; a retry would be a third
    assert sum(r.getMessage().startswith("evolve: basis dimension") for r in caplog.records) == 2


def _overflows_past(s0, fine_steps=None):
    """A problem weight of 1e308 at every midpoint s > s0, else the linear
    schedule's: on ``x - 20``, whose largest problem value is 400, it makes
    the Strang half phase angles and the midpoint generator overflow.
    ``fine_steps`` keeps the linear weight at the midpoints of every run
    but one of ``fine_steps`` steps: its midpoints are the odd multiples of
    1 / (2 fine_steps), and those of a run at twice its step the even ones."""

    def schedule(s):
        huge = s > s0
        if fine_steps is not None:
            huge &= np.round(s * 2 * fine_steps) % 2 == 1
        return 1.0 - s, np.where(huge, 1e308, s)

    return schedule


# the split blocks of ``x - 20`` at cutoff 12 (m = 13): of both runs while
# they step together, then of the h/2 run alone
_BOTH, _ALONE = block_length(32 * 13 * 2), block_length(32 * 13)
# the h run's step count at h = 0.02: two full blocks of both runs and a
# partial third, so both runs still step together in a later block
_STEPS = 2 * _BOTH + _BOTH // 2
# its aborts: at a step of the third block of both runs, and at a step of
# the h/2 run's first block alone, which begins at its step _STEPS
_H_FAILS = 2 * _BOTH + _BOTH // 4
_HALF_FAILS = _STEPS + min(_ALONE, _STEPS) // 2


@pytest.mark.parametrize(
    "cutoff, total_time, s0, integrator, run, block, failing",
    [
        # m = 13: the h run meets s > s0 at its step _H_FAILS, in the third
        # block of the two runs
        (
            12,
            _STEPS * 0.02,
            _H_FAILS / _STEPS,
            SPLIT,
            0,
            (2 * _BOTH, _STEPS - 1),
            _H_FAILS,
        ),
        # then only the h/2 run's midpoints overflow: it meets s > s0 at its
        # step _HALF_FAILS, in its first block alone, after every block of
        # the two runs
        (
            12,
            _STEPS * 0.02,
            _HALF_FAILS / (2 * _STEPS),
            SPLIT,
            1,
            (_STEPS, min(_STEPS + _ALONE, 2 * _STEPS) - 1),
            _HALF_FAILS,
        ),
        # m = 9: the midpoint exponential, 300 steps in blocks of 202; it
        # meets s > 0.834 at its step 250, in the second block
        (8, 6.0, 0.834, MIDEXP, None, (202, 299), 250),
        # m = 9: the split runs CF4 at 4h = 0.08 (under the record grid's
        # spacing 12 / 100), 150 steps in blocks of 101; the second Gauss
        # node of its step 130 is s = 0.8719 > 0.87, in the second block,
        # and no node of an earlier step passes 0.87
        (8, 12.0, 0.87, SPLIT, None, (101, 149), 130),
    ],
    ids=["h-run-two-run-phase", "half-step-run-alone", "midexp-m9", "cf4-m9"],
)
def test_abort_in_a_later_block_is_the_stepwise_abort(
    caplog, cutoff, total_time, s0, integrator, run, block, failing
):
    family, start = _sector_case("x - 20", cutoff)
    sector = family.sector_for(start)
    assert (sector.dimension >= SPLIT_MIN_DIMENSION) == (run is not None)
    params = EvolutionParams(total_time, 0.02, integrator)
    if run is not None:
        assert params.step_count() == _STEPS
    fine_steps = 2 * params.step_count() if run == 1 else None
    broken = replace(family, schedule=_overflows_past(s0, fine_steps))
    with np.errstate(over="ignore", invalid="ignore"):
        with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
            with pytest.raises(EvolutionAborted) as aborted:
                if run is None:
                    evolve(broken, start, params)
                else:
                    evolution._strang_runs(broken, start, sector, params)
        # the per-step reference of the run that aborts
        reference = replace(params, step=params.step / (1 + (run or 0)))
        prefix = ""
        if integrator is MIDEXP:
            _, _, t_abort = _stepwise_midpoint(broken, start, reference)
        elif run is None:
            reference = replace(params, integrator=CF4, step=0.08)
            _, _, t_abort = _stepwise_cf4(broken, start, reference)
        else:
            _, _, t_abort = _stepwise_strang(broken, start, reference)
            prefix = f"Strang run at step {reference.step}: "
    assert t_abort == reference.step_grid(failing, failing + 1)[0][0] + reference.step
    assert str(aborted.value).startswith(
        f"{prefix}non-finite amplitudes at t={t_abort}; reduce the step size"
    )
    lines = [r.getMessage() for r in caplog.records if "replayed" in r.getMessage()]
    assert lines == [
        f"evolve: run at step {reference.step} replayed steps {block[0]} to "
        f"{block[1]} one at a time; step {failing} fails it"
    ]


def test_split_check_is_logged(caplog):
    family, start = _sector_case("x - 3", 12)
    with caplog.at_level(logging.DEBUG, logger="adiophantine.evolution"):
        evolve(family, start, EvolutionParams(1.0, 0.02, integrator=SPLIT))
    messages = [r.getMessage() for r in caplog.records if r.name == "adiophantine.evolution"]
    # the shared loop of the runs at h and h/2, then the check
    assert len(messages) == 2
    assert messages[0] == (
        "evolve: basis dimension 13, sector dimension 13, group order 1, "
        f"block length {_BOTH}; Strang runs at steps 0.02 and 0.01 stepped "
        f"together, then the second alone in blocks of {_ALONE}"
    )
    assert messages[-1].startswith("evolve split: class disagreement ")
    assert messages[-1].endswith(
        "between steps 0.02 and 0.01, tolerance 0.001; "
        "returning the Strang run at the half step"
    )

