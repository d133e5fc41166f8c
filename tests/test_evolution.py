import warnings

import numpy as np
import pytest

from adiophantine.diophantine import parse_equation
from adiophantine.evolution import (
    EvolutionAborted,
    EvolutionParams,
    ExtrapolationError,
    Integrator,
    evolve,
    extrapolate_to_zero_step,
    richardson_from_values,
)
from adiophantine.fock import (
    FockBasis,
    HermitianOperator,
    StateVector,
    TruncationWarning,
)
from adiophantine.hamiltonians import AdiabaticFamily

RK4 = Integrator.RK4
MIDEXP = Integrator.MIDPOINT_EXPONENTIAL


def _diagonal_family(energies):
    basis = FockBasis(1, len(energies) - 1)
    h = HermitianOperator(basis, diagonal=np.array(energies, dtype=float))
    return AdiabaticFamily(h, h), basis


def _two_level():
    """x - 1 on a 2-level space; exact eigenvector start avoids the
    truncation warning the displaced coherent state would raise here."""
    p = parse_equation("x - 1")
    basis = FockBasis(1, 1)
    problem = HermitianOperator(basis, diagonal=np.array([1.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        from adiophantine.hamiltonians import build_initial_hamiltonian

        initial, _ = build_initial_hamiltonian(basis, 0.5)
    family = AdiabaticFamily(initial, problem, problem_values=(1, 0))
    _, vectors = initial.eigensystem()
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


def test_partial_final_step_lands_exactly_on_total_time():
    family, basis = _diagonal_family([0.0, 1.0, 2.0])
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


# -- basic behavior --------------------------------------------------------------


@pytest.mark.parametrize("integrator", [RK4, MIDEXP])
def test_diagonal_generator_leaves_probabilities_invariant(integrator):
    family, basis = _diagonal_family([0.0, 1.0, 3.0])
    rng = np.random.default_rng(2)
    amps = rng.normal(size=3) + 1j * rng.normal(size=3)
    init = StateVector(basis, amps / np.linalg.norm(amps))
    params = EvolutionParams(total_time=1.0, step=1e-3, integrator=integrator)
    trace = evolve(family, init, params)
    assert np.max(np.abs(trace.probabilities[-1] - trace.probabilities[0])) < 1e-12


def test_one_step_generator_bound():
    family, basis = _diagonal_family([0.0, 3.0])
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
    family, basis = _diagonal_family([0.0, 1.0])
    bad = StateVector(basis, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        evolve(family, bad, EvolutionParams(1.0, 0.1))


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
    family, basis = _diagonal_family([0.0, 50.0])
    init = StateVector(basis, np.array([1.0, 1.0]) / np.sqrt(2))
    with pytest.raises(EvolutionAborted, match="smaller step"):
        evolve(family, init, EvolutionParams(10.0, 0.1, integrator=RK4))


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


# -- Richardson extrapolation -----------------------------------------------------


def test_richardson_converged_series():
    value, error, order = richardson_from_values([0.25, 0.25, 0.25], 0.5)
    assert value == 0.25
    assert error == 0.0
    assert order is None


def test_richardson_exact_fourth_order_series():
    truth = 0.3
    values = [truth + (h**4) for h in (0.2, 0.1, 0.05)]
    value, error, order = richardson_from_values(values, 0.5)
    assert order == pytest.approx(4.0, abs=1e-9)
    assert value == pytest.approx(truth, abs=1e-12)
    assert error < 1e-12


def test_richardson_rejects_growing_residuals():
    with pytest.raises(ExtrapolationError, match="asymptotic"):
        richardson_from_values([0.1, 0.2, 0.5], 0.5)


def test_richardson_rejects_short_input():
    with pytest.raises(ExtrapolationError):
        richardson_from_values([0.1, 0.2], 0.5)


def test_extrapolation_step_validation():
    family, start = _two_level()
    with pytest.raises(ExtrapolationError):
        extrapolate_to_zero_step(family, start, 1.0, (0.1, 0.05), observable=1)
    with pytest.raises(ExtrapolationError):
        extrapolate_to_zero_step(family, start, 1.0, (0.1, 0.05, 0.03), observable=1)
    with pytest.raises(ValueError):
        extrapolate_to_zero_step(family, start, 1.0, (0.1, 0.05, 0.025), observable=9)


def test_rk4_observed_order_is_four():
    family, start = _two_level()
    result = extrapolate_to_zero_step(
        family, start, 2.0, (0.2, 0.1, 0.05), observable=1, integrator=RK4
    )
    assert result.observed_order == pytest.approx(4.0, abs=0.5)
    # independent oracle: midpoint-exponential run at a far smaller step
    reference = evolve(
        family, start, EvolutionParams(2.0, 1e-5, record_grid=2)
    ).final_probabilities()[1]
    assert abs(result.value - reference) <= max(result.error_estimate, 1e-8)


def test_midexp_observed_order_is_two():
    family, start = _two_level()
    result = extrapolate_to_zero_step(
        family, start, 2.0, (0.2, 0.1, 0.05), observable=1, integrator=MIDEXP
    )
    assert result.observed_order == pytest.approx(2.0, abs=0.5)
    # independent oracle on the other scheme
    reference = evolve(
        family, start, EvolutionParams(2.0, 5e-4, integrator=RK4, record_grid=2)
    ).final_probabilities()[1]
    assert abs(result.value - reference) <= max(result.error_estimate, 1e-8)


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


@pytest.mark.parametrize("integrator", [RK4, MIDEXP])
def test_non_finite_schedule_weight_fails_loudly(integrator):
    family, start = _suite_family()
    broken = AdiabaticFamily(
        family.initial,
        family.problem,
        schedule=lambda s: (1.0 - s, s if s < 0.5 else float("nan")),
    )
    params = EvolutionParams(1.0, 0.1, integrator=integrator, record_grid=2)
    with pytest.raises(ValueError, match="not finite"):
        evolve(broken, start, params)
