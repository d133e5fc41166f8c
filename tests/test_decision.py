import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jsonschema

from adiophantine import decision
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
    MAX_VARIABLES,
    Polynomial,
    VariableSemantics,
    evaluate,
    min_over_box,
    parse_equation,
)
from adiophantine.evolution import (
    SPLIT_TOLERANCE,
    EvolutionParams,
    EvolutionTrace,
    Integrator,
)
from adiophantine.fock import FockBasis, StateVector, coherent_state
from adiophantine.hamiltonians import DEFAULT_ALPHA, AdiabaticFamily
from test_diophantine import polynomials

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
    assert aggregate.class_size == 2
    assert aggregate.class_probability == pytest.approx(0.7)
    assert aggregate.top_probability == pytest.approx(0.35)
    strict = identify_ground_state(trace, family, strict=True)
    assert strict is None  # single state holds only 0.35


def test_tie_breaks_toward_smallest_index():
    family, _ = _family("x - 1", 3)
    state = StateVector(family.basis, np.sqrt(np.array([0.3, 0.3, 0.3, 0.1])))
    candidate = classify_final_state(_trace_of(state), family)
    assert candidate.top_occupation == family.basis.occupation(0)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([["x"], ["x", "y"]]).flatmap(lambda names: polynomials(names=names)),
    st.integers(2, 5),
    st.data(),
)
def test_classify_recounts_the_top_class(p, cutoff, data):
    assume(p.num_vars > 0)
    family, _ = AdiabaticFamily.from_polynomial(p, FockBasis(p.num_vars, cutoff))
    d = family.dimension
    # small integer weights give ties among the probabilities
    weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    assume(weights.sum() > 0)
    trace = _trace_of(StateVector(family.basis, np.sqrt(weights / weights.sum())))
    probs = trace.final_probabilities()
    top = min(i for i in range(d) if probs[i] >= probs.max() - 1e-9)
    values = family.problem_values.tolist()
    members = [i for i in range(d) if values[i] == values[top]]
    candidate = classify_final_state(trace, family)
    assert candidate.top_occupation == family.basis.occupation(top)
    assert candidate.top_probability == probs[top]
    assert candidate.class_value == values[top]
    assert candidate.class_size == len(members)
    # the masked sum in index order, bitwise
    assert candidate.class_probability == float(probs[members].sum())
    # the bar reads the top state alone when strict, else its class
    for strict in (False, True):
        probability = probs[top] if strict else candidate.class_probability
        identified = identify_ground_state(trace, family, strict=strict)
        assert identified == (candidate if probability > 0.5 else None)


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


def test_negative_j_max_is_refused():
    # j_max = -1 would give an empty schedule, which no report may carry
    with pytest.raises(ValueError, match="j_max must be at least 0"):
        DecideConfig(j_max=-1)


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"cutoff": 0}, "cutoff must be at least 1"),
        ({"step": 0.0}, "step must be positive and finite"),
        ({"step": -0.02}, "step must be positive and finite"),
        ({"step": float("nan")}, "step must be positive and finite"),
        ({"step": float("inf")}, "step must be positive and finite"),
        ({"t0": -1.0}, "t0 must be positive and finite"),
        ({"t0": float("nan")}, "t0 must be positive and finite"),
        ({"t0": float("inf")}, "t0 must be positive and finite"),
        # the last rung, t0 * 2^j_max, and its step count must be finite
        ({"t0": 1e308}, r"last run time t0 \* 2\^j_max overflows"),
        ({"j_max": 2000}, r"last run time t0 \* 2\^j_max overflows"),
        (
            {"step": 1e-300, "t0": 1e10},
            r"step count 640000000000\.0 / 1e-300 overflows",
        ),
        # a cutoff whose box exceeds the dimension limit at any mode count
        ({"cutoff": 8192}, "cutoff must be below 8192, got 8192"),
        ({"alphas": float("nan")}, "alphas must be finite"),
        ({"alphas": 1e308 + 1e308j, "cutoff": 4}, "overflow the start state"),
        # one displacement is checked on one mode, a tuple on all its modes
        ({"alphas": (1e50, 1e50), "cutoff": 2}, "overflow the start state"),
    ],
)
def test_out_of_range_settings_are_refused(setting, message):
    with pytest.raises(ValueError, match=message):
        DecideConfig(**setting)


def test_removed_settings_are_refused():
    # a report describes only the run that produced its verdict
    with pytest.raises(TypeError, match="extrapolation_steps"):
        DecideConfig(extrapolation_steps=(0.04, 0.02, 0.01))


def test_more_modes_than_an_equation_may_have_are_refused():
    # the sector tries each of the k! mode permutations, at most 8! of them;
    # the parser refuses a ninth variable, the family any ninth mode
    k = MAX_VARIABLES + 1
    message = f"a family has at most {MAX_VARIABLES} modes, got {k}"
    with pytest.raises(ValueError, match=message):
        AdiabaticFamily([np.eye(2)] * k, np.zeros(2**k, dtype=np.int64))
    terms = {tuple(np.eye(k, dtype=int)[i]): 1 for i in range(k)}
    p = Polynomial.from_terms({**terms, (0,) * k: -3}, "abcdefghi")
    assert p.num_vars == k
    with pytest.raises(ValueError, match=message):
        decide(p, DecideConfig(cutoff=1))


def test_ties_are_broken_at_a_fixed_tolerance():
    # the top state is read with ties within 1e-9: a class constant, no
    # setting, and not in a report's config
    with pytest.raises(TypeError, match="tie_tol"):
        DecideConfig(tie_tol=0.0)
    assert DecideConfig.tie_tol == 1e-9
    report = decide(parse_equation("x - 1"), FAST)
    assert "tie_tol" not in report_to_json_dict(report)["config"]


def test_each_rung_records_only_its_two_ends():
    # a rung is read only at its end: the record grid is no setting
    with pytest.raises(TypeError, match="record_grid"):
        DecideConfig(record_grid=5)
    assert DecideConfig().rung(10.0).record_grid == 2


GOLDEN_CLASS_VALUES = {
    "x - 1": 0,
    "x - 20": 144,
    "x^2 + 1": 1,
    "x + y + z - 3": 0,
    "x + y - 5": 0,
    "x*y*z - 8": 64,
    "x*y - z": 0,
    "x^2 + y^2 - z^2": 0,
}

# orbit-mates under a variable symmetry carry equal probability, and the
# tie goes to the smallest basis index
GOLDEN_TOP_OCCUPATIONS = {
    "x - 1": (1,),
    "x - 20": (8,),
    "x^2 + 1": (0,),
    "x + y + z - 3": (1, 1, 1),
    "x + y - 5": (2, 3),
    "x*y*z - 8": (0, 0, 0),
    "x*y - z": (0, 0, 0),
    "x^2 + y^2 - z^2": (0, 0, 0),
}

# every other golden equation identifies on the first rung
GOLDEN_SCHEDULES = {"x - 20": (10.0, 20.0, 40.0, 80.0, 160.0, 320.0)}


@pytest.mark.parametrize(
    "text, cutoff, class_probability",
    [
        ("x - 1", 8, 0.9181706202384153),
        # escalates through six rungs, 31 500 midpoint steps
        ("x - 20", 8, 0.8029873154345071),
        ("x^2 + 1", 8, 0.9493802868362211),
        ("x + y + z - 3", 4, 0.88479090891228),
        ("x + y - 5", 8, 0.520703920407835),
        ("x*y*z - 8", 4, 0.5645261939782158),
        # symmetric under the exchange of x and y only
        ("x*y - z", 4, 0.9837075877694744),
        ("x^2 + y^2 - z^2", 4, 0.9226219965959574),
    ],
)
def test_decide_golden_values(text, cutoff, class_probability):
    config = DecideConfig(cutoff=cutoff, integrator=Integrator.MIDPOINT_EXPONENTIAL)
    report = decide(parse_equation(text), config)
    assert report.schedule == GOLDEN_SCHEDULES.get(text, (10.0,))
    assert report.successful_time == report.schedule[-1]
    assert report.class_probability == pytest.approx(class_probability, abs=1e-12)
    # x*y*z - 8 settles on the wrong class (1*2*4 = 8 lies in the box)
    assert report.class_value == GOLDEN_CLASS_VALUES[text]
    assert report.top_occupation == GOLDEN_TOP_OCCUPATIONS[text]


# the bench's decide-dense corpus: (midexp report, split class probability).
# A midexp report is (schedule, verdict, witness, top occupation, class
# value, class probability); the split values are frozen from the default
# config, which runs the Strang step on every rung of these equations.
SOLVED = Verdict.SOLUTION_EXISTS
NO_SOLUTION = Verdict.NO_SOLUTION_WITHIN_CUTOFF
DENSE_GOLDENS = {
    ("x + y - 5", 8): (
        ((10.0,), SOLVED, (2, 3), (2, 3), 0, 0.5207039204078586),
        0.5206981706635109,
    ),
    ("x*y - 6", 8): (
        ((10.0, 20.0, 40.0, 80.0), SOLVED, (2, 3), (2, 3), 0, 0.8746177652823595),
        0.8746160631588564,
    ),
    ("x + y + 1", 8): (
        ((10.0,), NO_SOLUTION, None, (0, 0), 1, 0.9238012249887233),
        0.9237962633303188,
    ),
    ("x^2 + y^2 - 25", 5): (
        (
            (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0),
            SOLVED,
            (0, 5),
            (0, 5),
            0,
            0.6459766043003,
        ),
        # the T = 640 rung takes 32000 h steps and 64000 h/2 steps: a
        # rounding of the sector's start array moves this by about 1e-11
        0.6459415205332575,
    ),
    ("x + y + z - 3", 4): (
        ((10.0,), SOLVED, (1, 1, 1), (1, 1, 1), 0, 0.8847909089122971),
        0.8847855124694397,
    ),
    ("x*y - z", 4): (
        ((10.0,), SOLVED, (0, 0, 0), (0, 0, 0), 0, 0.9837075877694743),
        0.9837066184929196,
    ),
    ("x^2 + y^2 - z^2", 4): (
        ((10.0,), SOLVED, (0, 0, 0), (0, 0, 0), 0, 0.9226219965959574),
        0.9226140989732862,
    ),
    # a false certificate, as with midexp: 1*2*4 = 8 lies in the box
    ("x*y*z - 8", 4): (
        ((10.0,), NO_SOLUTION, None, (0, 0, 0), 64, 0.564526193978199),
        0.564538977794663,
    ),
}


@pytest.mark.parametrize("text, cutoff", list(DENSE_GOLDENS), ids=str)
def test_decide_split_matches_midexp(text, cutoff):
    midexp, split_probability = DENSE_GOLDENS[text, cutoff]
    schedule, verdict, witness, occupation, class_value, midexp_probability = midexp
    report = decide(parse_equation(text), DecideConfig(cutoff=cutoff))
    assert report.config.integrator is Integrator.SPLIT
    assert report.schedule == schedule
    assert report.verdict is verdict
    assert report.witness == witness
    assert report.top_occupation == occupation
    assert report.class_value == class_value
    assert abs(report.class_probability - midexp_probability) <= SPLIT_TOLERANCE
    assert report.class_probability == pytest.approx(split_probability, abs=1e-12)


def test_decide_on_refused_rungs_runs_no_midpoint_exponential(monkeypatch):
    # x^2 + y^2 - 25 at cutoff 8 (m = 45) refuses the split check at h on
    # its stiff rungs T = 80, 160 and 320; each retry at h/2 agrees and
    # returns its Strang run at h/4, and the verdict rung T = 640 accepts at h
    returned, run = [], decision.evolve

    def evolve(family, start, params):
        trace = run(family, start, params)
        returned.append(trace.params)
        return trace

    monkeypatch.setattr(decision, "evolve", evolve)
    report = decide(parse_equation("x^2 + y^2 - 25"), DecideConfig(cutoff=8))
    assert report.schedule == (10.0, 20.0, 40.0, 80.0, 160.0, 320.0, 640.0)
    assert report.successful_time == 640.0
    assert report.verdict is Verdict.SOLUTION_EXISTS
    assert report.class_value == 0
    assert report.class_probability == 0.5609124001757441
    refused = (80.0, 160.0, 320.0)
    assert [(p.total_time, p.integrator, p.step) for p in returned] == [
        (T, Integrator.SPLIT, 0.005 if T in refused else 0.01) for T in report.schedule
    ]


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


@pytest.mark.parametrize(
    "text, config",
    # decided, and inconclusive
    [("x - 1", FAST), ("x + y - 5", DecideConfig(cutoff=5, t0=0.01, j_max=0))],
)
def test_report_keys_are_the_schema_properties(text, config):
    # the report is written from its record's fields, so a field added to
    # a record changes the format only together with the schema
    report = decide(parse_equation(text), config)
    assert set(report_to_json_dict(report)) == set(REPORT_SCHEMA["properties"])
    assert len(REPORT_SCHEMA["properties"]) == 17
    config = report_to_json_dict(report)["config"]
    assert set(config) == {f.name for f in fields(DecideConfig)}


def test_report_config_has_one_displacement_per_mode():
    config = DecideConfig(cutoff=3, t0=10.0, j_max=2, step=0.05)
    report = decide(parse_equation("x*y - 2"), config)
    assert report.config.alphas == (DEFAULT_ALPHA, DEFAULT_ALPHA)
    assert report_to_json_dict(report)["config"]["alphas"] == [[2**-0.5, 0.0]] * 2
