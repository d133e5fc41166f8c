import json

import numpy as np
import pytest

import jsonschema

from adiophantine.decision import (
    REPORT_SCHEMA,
    DecideConfig,
    Verdict,
    classify_final_state,
    decide,
    identify_ground_state,
    report_to_json_dict,
    sample_measurements,
    sweep_to_json_dict,
    truncation_sweep,
)
from adiophantine.diophantine import (
    VariableSemantics,
    evaluate,
    min_over_box,
    parse_equation,
)
from adiophantine.evolution import EvolutionParams, EvolutionTrace
from adiophantine.fock import FockBasis, StateVector, coherent_state
from adiophantine.hamiltonians import AdiabaticFamily

# small cutoffs genuinely truncate the start state; that warning is expected here
pytestmark = pytest.mark.filterwarnings(
    "ignore::adiophantine.fock.TruncationWarning"
)

FAST = DecideConfig(cutoff=7, t0=10.0, j_max=4, step=0.05)


def _family(text, cutoff):
    p = parse_equation(text)
    return AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))


def _trace_of(state):
    probs = state.probabilities()
    return EvolutionTrace(
        times=np.array([0.0, 1.0]),
        probabilities=np.array([probs, probs]),
        norm_errors=np.array([0.0, 0.0]),
        final_state=state,
        params=EvolutionParams(total_time=1.0, step=1.0, record_grid=2),
    )


# -- identification criterion ---------------------------------------------------


def test_identify_pure_basis_state():
    family, _ = _family("x - 1", 3)
    state = StateVector.basis_state(family.basis, (1,))
    candidate = identify_ground_state(_trace_of(state), family)
    assert candidate is not None
    assert candidate.top_occupation == (1,)
    assert candidate.class_probability == 1.0
    assert candidate.class_value == 0


def test_identify_uniform_state_fails():
    family, _ = _family("x - 1", 3)
    state = StateVector(family.basis, 0.5 * np.ones(4))
    assert identify_ground_state(_trace_of(state), family) is None


def test_probability_exactly_one_half_does_not_identify():
    # strictly more than 1/2 is required; amplitudes chosen so the
    # probability is exactly 0.5 in floating point
    family, _ = _family("x - 1", 1)
    state = StateVector(family.basis, np.array([0.5 + 0.5j, 0.5 - 0.5j]))
    assert state.probabilities()[1] == 0.5
    assert identify_ground_state(_trace_of(state), family) is None
    candidate = classify_final_state(_trace_of(state), family)
    assert candidate.top_probability == 0.5


def test_strict_versus_aggregate_on_degenerate_class():
    family, _ = _family("2*x - 3", 3)  # problem diagonal (9, 1, 1, 9)
    amps = np.sqrt(np.array([0.15, 0.35, 0.35, 0.15]))
    state = StateVector(family.basis, amps)
    trace = _trace_of(state)
    aggregate = identify_ground_state(trace, family)
    assert aggregate is not None
    assert aggregate.class_indices == (1, 2)
    assert aggregate.class_probability == pytest.approx(0.7)
    assert aggregate.criterion == "class_aggregate"
    strict = identify_ground_state(trace, family, strict=True)
    assert strict is None  # single state holds only 0.35


def test_tie_breaks_toward_smallest_index():
    family, _ = _family("x - 1", 3)
    state = StateVector(family.basis, np.sqrt(np.array([0.3, 0.3, 0.3, 0.1])))
    candidate = classify_final_state(_trace_of(state), family)
    assert candidate.top_index == 0


# -- decide -----------------------------------------------------------------------


def test_decide_solvable():
    report = decide(parse_equation("x - 1"), FAST)
    assert report.verdict is Verdict.SOLUTION_EXISTS
    assert report.witness == (1,)
    assert report.class_probability > 0.5
    assert report.successful_time is not None
    assert evaluate(parse_equation("x - 1"), report.witness) == 0


def test_decide_positive_semantics_shifts_witness():
    config = DecideConfig(cutoff=7, t0=10.0, j_max=4, step=0.05,
                          semantics=VariableSemantics.POSITIVE)
    p = parse_equation("x - 1")
    report = decide(p, config)
    assert report.verdict is Verdict.SOLUTION_EXISTS
    assert report.witness == (1,)
    assert evaluate(p, report.witness) == 0


def test_decide_no_solution_within_cutoff():
    report = decide(parse_equation("x + 1"), FAST)
    assert report.verdict is Verdict.NO_SOLUTION_WITHIN_CUTOFF
    assert report.witness is None
    assert report.class_value == 1
    assert report.top_occupation == (0,)


def test_decide_diabatic_inconclusive():
    # the sudden limit leaves the spread two-mode start state in place, so
    # no diagonal class can clear the bar
    config = DecideConfig(cutoff=5, t0=0.01, j_max=0, step=0.05)
    report = decide(parse_equation("x + y - 5"), config)
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.witness is None
    assert report.successful_time is None
    assert report.schedule == (0.01,)


@pytest.mark.parametrize(
    "text, cutoff, class_probability",
    [
        ("x - 1", 8, 0.9181706202384153),
        ("x^2 + 1", 8, 0.9493802868362211),
        ("x + y + z - 3", 4, 0.88479090891228),
    ],
)
def test_decide_golden_values(text, cutoff, class_probability):
    report = decide(parse_equation(text), DecideConfig(cutoff=cutoff))
    assert report.schedule == (10.0,)
    assert report.successful_time == 10.0
    assert report.class_probability == pytest.approx(class_probability, abs=1e-12)


def test_decide_rejects_constant_equation():
    with pytest.raises(ValueError):
        decide(parse_equation("5"), FAST)


def test_decide_matches_box_oracle():
    for text in ["x - 2", "x^2 - 4", "2*x - 3"]:
        p = parse_equation(text)
        report = decide(p, FAST)
        oracle = min_over_box(p, FAST.cutoff)
        if report.verdict is Verdict.SOLUTION_EXISTS:
            assert oracle.value == 0
        elif report.verdict is Verdict.NO_SOLUTION_WITHIN_CUTOFF:
            assert oracle.value > 0


def test_decide_is_deterministic():
    first = decide(parse_equation("x - 1"), FAST)
    second = decide(parse_equation("x - 1"), FAST)
    assert report_comparable(first) == report_comparable(second)


def report_comparable(report):
    d = report_to_json_dict(report)
    d.pop("sidecar")
    return json.dumps(d, sort_keys=True)


def test_decide_with_extrapolation_metadata():
    config = DecideConfig(
        cutoff=7,
        t0=10.0,
        j_max=2,
        step=0.05,
        extrapolation_steps=(0.08, 0.04, 0.02),
    )
    report = decide(parse_equation("x - 1"), config)
    assert report.extrapolation is not None
    assert report.extrapolation.error_estimate >= 0
    assert abs(report.extrapolation.value - report.top_probability) < 1e-2


# -- truncation sweep ---------------------------------------------------------------


def test_sweep_stable_for_small_witness():
    result = truncation_sweep(parse_equation("x - 1"), [3, 5, 7], FAST)
    assert [r.verdict for r in result.reports] == [Verdict.SOLUTION_EXISTS] * 3
    assert all(r.witness == (1,) for r in result.reports)
    assert result.stable
    assert "cutoff" in result.caveat


def test_sweep_unstable_when_witness_crosses_cutoff():
    result = truncation_sweep(parse_equation("x - 6"), [3, 7], FAST)
    first, second = result.reports
    assert first.verdict in (
        Verdict.NO_SOLUTION_WITHIN_CUTOFF,
        Verdict.INCONCLUSIVE,
    )
    assert second.verdict is Verdict.SOLUTION_EXISTS
    assert second.witness == (6,)
    assert not result.stable


def test_sweep_rejects_bad_cutoff_lists():
    with pytest.raises(ValueError):
        truncation_sweep(parse_equation("x - 1"), [], FAST)
    with pytest.raises(ValueError):
        truncation_sweep(parse_equation("x - 1"), [5, 3], FAST)


# -- measurement sampling -------------------------------------------------------------


def test_sampling_pure_state_all_shots_on_one_index():
    basis = FockBasis(1, 3)
    state = StateVector.basis_state(basis, (2,))
    run = sample_measurements(state, shots=500, seed=9)
    assert run.counts[2] == 500
    assert sum(run.counts) == 500
    assert run.frequencies[2] == 1.0


def test_sampling_uniform_within_binomial_bound():
    basis = FockBasis(1, 1)
    state = StateVector(basis, np.array([0.5 + 0.5j, 0.5 - 0.5j]))
    run = sample_measurements(state, shots=10_000, seed=42)
    assert run.counts == (4909, 5091)  # frozen golden draw
    for f, q in zip(run.frequencies, run.exact_probabilities):
        assert abs(f - q) <= 5 * np.sqrt(q * (1 - q) / run.shots)


def test_sampling_seed_determinism():
    state = coherent_state(FockBasis(1, 8), 0.5)
    one = sample_measurements(state, shots=2000, seed=7)
    two = sample_measurements(state, shots=2000, seed=7)
    other = sample_measurements(state, shots=2000, seed=8)
    assert one == two
    assert one != other


def test_sampling_csv_layout():
    basis = FockBasis(1, 1)
    state = StateVector(basis, np.array([0.5 + 0.5j, 0.5 - 0.5j]))
    run = sample_measurements(state, shots=100, seed=3)
    lines = run.to_csv().strip().split("\n")
    assert lines[0] == "index,count,frequency,exact_probability"
    assert len(lines) == 3
    index, count, freq, exact = lines[1].split(",")
    assert int(count) == run.counts[0]
    assert float(exact) == 0.5


def test_sampling_validation():
    basis = FockBasis(1, 1)
    state = StateVector(basis, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        sample_measurements(state, shots=0, seed=1)


# -- report serialization ---------------------------------------------------------------


def test_report_json_validates_against_schema():
    report = decide(parse_equation("x - 1"), FAST)
    data = report_to_json_dict(report, created_utc="2026-01-01T00:00:00+00:00")
    jsonschema.validate(data, REPORT_SCHEMA)
    assert data["schema"] == 1
    assert data["verdict"] == "solution_exists"
    assert data["config"]["cutoff"] == 7
    assert data["sidecar"]["created_utc"] == "2026-01-01T00:00:00+00:00"
    # a no-solution report carries the cutoff caveat
    negative = decide(parse_equation("x + 1"), FAST)
    negative_data = report_to_json_dict(negative)
    jsonschema.validate(negative_data, REPORT_SCHEMA)
    assert negative_data["caveat"] is not None


def test_sweep_json_shape():
    result = truncation_sweep(parse_equation("x - 1"), [3, 5], FAST)
    data = sweep_to_json_dict(result)
    assert data["stable"] is True
    assert len(data["reports"]) == 2
    for entry in data["reports"]:
        jsonschema.validate(entry, REPORT_SCHEMA)
