"""The full decision loop and its identification criterion.

A run evolves the start state for a fixed time T, looks at the final basis
probabilities, and asks whether the most likely occupation tuple can be
trusted as the problem ground state.  The identification criterion is a
measurement probability strictly greater than 1/2: only the true final
ground state can clear that bar, so a run that clears it is decisive and a
run that does not is retried with a doubled T.

Ground levels of the squared-equation diagonal are frequently degenerate
(every zero in the box shares the value 0), so by default the criterion is
applied to the probability aggregated over the whole degeneracy class of
the top state; ``strict`` mode applies it to the single top basis state
only.  Every report records which interpretation produced it.

A ``solution_exists`` verdict always carries a witness that is re-checked
by exact integer evaluation, independently of the quantum pipeline.  A
``no_solution_within_cutoff`` verdict certifies only the searched box.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum

import numpy as np

from .diophantine import (
    Polynomial,
    VariableSemantics,
    evaluate,
    substitute_shift,
    to_text,
)
from .evolution import EvolutionParams, EvolutionTrace, Integrator, evolve
from .fock import FockBasis, StateVector, _log_norms, as_mode_alphas
from .hamiltonians import DEFAULT_ALPHA, MAX_DIMENSION, AdiabaticFamily

__all__ = [
    "CUTOFF_CAVEAT",
    "Verdict",
    "GroundStateCandidate",
    "classify_final_state",
    "identify_ground_state",
    "DecideConfig",
    "DecisionReport",
    "decide",
    "SweepResult",
    "sweep_configs",
    "truncation_sweep",
    "MeasurementRun",
    "sample_measurements",
    "report_to_json_dict",
    "sweep_to_json_dict",
    "REPORT_SCHEMA",
]

CUTOFF_CAVEAT = (
    "a no_solution_within_cutoff verdict certifies only the searched box "
    "[0, cutoff]^k; it never establishes that no solution exists at all"
)


class Verdict(Enum):
    SOLUTION_EXISTS = "solution_exists"
    NO_SOLUTION_WITHIN_CUTOFF = "no_solution_within_cutoff"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class GroundStateCandidate:
    """Top basis state of a final distribution plus its degeneracy class."""

    top_occupation: tuple[int, ...]
    top_probability: float
    class_size: int
    class_value: int
    class_probability: float


def classify_final_state(
    trace: EvolutionTrace, family: AdiabaticFamily, tie_tol: float = 1e-9
) -> GroundStateCandidate:
    """Describe the most likely final basis state without applying the bar.

    The top state is the maximum-probability index, ties within ``tie_tol``
    broken toward the smallest index; its class is every basis state with
    the same exact problem-diagonal value.
    """
    probs = trace.final_probabilities()
    top = int(np.nonzero(probs >= probs.max() - tie_tol)[0][0])
    values = family.problem_values
    in_class = values == values[top]
    return GroundStateCandidate(
        top_occupation=family.basis.occupation(top),
        top_probability=float(probs[top]),
        class_size=int(np.count_nonzero(in_class)),
        class_value=int(values[top]),
        class_probability=float(probs[in_class].sum()),
    )


def identify_ground_state(
    trace: EvolutionTrace,
    family: AdiabaticFamily,
    tie_tol: float = 1e-9,
    strict: bool = False,
) -> GroundStateCandidate | None:
    """Apply the strictly-greater-than-1/2 identification criterion.

    Returns the candidate when the probability of its class (of its top
    state alone when ``strict``) clears 1/2, else None.  A probability of
    exactly 1/2 does not identify.

    The bar is only meaningful once the deformation has had time to act: a
    weakly displaced start state can itself hold more than half its weight
    in a single diagonal class (a single mode at displacement 1/sqrt(2)
    keeps weight exp(-1/2) on the empty state), so callers should not apply
    the criterion in the sudden (tiny run time) limit.  The decision loop's
    default starting time is comfortably past that regime for desk-scale
    instances.
    """
    candidate = classify_final_state(trace, family, tie_tol=tie_tol)
    probability = candidate.top_probability if strict else candidate.class_probability
    return candidate if probability > 0.5 else None


@dataclass(frozen=True)
class DecideConfig:
    """Everything a decision run depends on; embedded in every report.

    The decide ladder runs ``t0 * 2^j`` for j = 0 .. ``j_max``.  Each rung
    is read only at its end, so it records its two ends (``record_grid``, a
    class constant and no setting).  Its top state is read with ties within
    ``tie_tol``, a class constant too.

    ``step`` is the step h of ``integrator``.  The split runs its Strang
    check at h and h/2 in sectors of dimension ``SPLIT_MIN_DIMENSION`` (12)
    and up, and CF4 below it, at ``CF4_STEP_MULTIPLE`` h = 4h, capped at
    the spacing of the run's record grid when that is longer than h: a
    rung records two points, so its cap is the whole rung, and every
    sub-bar rung longer than 4h steps at 4h."""

    record_grid = 2
    tie_tol = 1e-9

    cutoff: int = 8
    semantics: VariableSemantics = VariableSemantics.NON_NEGATIVE
    alphas: complex | tuple[complex, ...] = DEFAULT_ALPHA
    integrator: Integrator = Integrator.SPLIT
    step: float = 0.02
    t0: float = 10.0
    j_max: int = 6
    strict_criterion: bool = False

    def __post_init__(self):
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be at least 1, got {self.cutoff}")
        # every basis at this cutoff has d > cutoff, over the dimension limit
        # for any number of modes: refused before _log_norms lists cutoff floats
        if self.cutoff >= MAX_DIMENSION:
            raise ValueError(f"cutoff must be below {MAX_DIMENSION}, got {self.cutoff}")
        if not np.isfinite(np.asarray(self.alphas, dtype=np.complex128)).all():
            raise ValueError(f"alphas must be finite, got {self.alphas}")
        # a shared displacement is checked on one mode, per-mode ones together
        _log_norms(self._displacements(), self.cutoff)
        for name in ("step", "t0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.j_max < 0:
            raise ValueError(f"j_max must be at least 0, got {self.j_max}")
        try:
            last = math.ldexp(self.t0, self.j_max)
        except OverflowError:
            raise ValueError("last run time t0 * 2^j_max overflows") from None
        # the longest rung has the most steps
        self.rung(last)

    def time_schedule(self) -> tuple[float, ...]:
        return tuple(math.ldexp(self.t0, j) for j in range(self.j_max + 1))

    def rung(self, total_time: float) -> EvolutionParams:
        """The run of one rung of ``total_time``, at ``step`` or at the whole
        run time when that is shorter."""
        step = min(self.step, total_time)
        return EvolutionParams(total_time, step, self.integrator, self.record_grid)

    def _displacements(self) -> tuple[complex, ...]:
        """``alphas`` as a tuple: one shared by every mode, or one per mode."""
        if isinstance(self.alphas, (int, float, complex)):
            return (complex(self.alphas),)
        return tuple(map(complex, self.alphas))


# the candidate's fields that a report repeats, None when none identified
_DESCRIBED = [f.name for f in fields(GroundStateCandidate)]


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one escalating-time decision run."""

    equation: str
    semantics: str
    cutoff: int
    schedule: tuple[float, ...]
    verdict: Verdict
    witness: tuple[int, ...] | None
    top_occupation: tuple[int, ...] | None
    top_probability: float | None
    class_probability: float | None
    class_size: int | None
    class_value: int | None
    successful_time: float | None
    criterion: str
    config: DecideConfig
    wall_clock_seconds: float


def decide(p: Polynomial, config: DecideConfig = DecideConfig()) -> DecisionReport:
    """Run the escalating-time loop until identification or exhaustion.

    Deterministic given the configuration.  Identification reads the top
    occupation tuple; its exact equation value decides between
    ``solution_exists`` (value 0, witness reported in the input semantics
    and re-verified by integer evaluation) and
    ``no_solution_within_cutoff`` (positive ground level on the box).
    """
    start = time.perf_counter()
    if p.num_vars == 0:
        raise ValueError("equation has no variables to solve for")
    shifted = substitute_shift(p, config.semantics)
    basis = FockBasis(shifted.num_vars, config.cutoff)
    # the report's config names one displacement per mode, so it replays
    config = replace(config, alphas=as_mode_alphas(config.alphas, basis.num_modes))
    family, start_state = AdiabaticFamily.from_polynomial(
        shifted, basis, alphas=config.alphas
    )

    tried: list[float] = []
    candidate: GroundStateCandidate | None = None
    successful_time: float | None = None
    for total_time in config.time_schedule():
        tried.append(total_time)
        trace = evolve(family, start_state, config.rung(total_time))
        candidate = identify_ground_state(
            trace, family, tie_tol=config.tie_tol, strict=config.strict_criterion
        )
        if candidate is not None:
            successful_time = total_time
            break

    witness = None
    if candidate is None:
        verdict = Verdict.INCONCLUSIVE
    elif candidate.class_value != 0:
        verdict = Verdict.NO_SOLUTION_WITHIN_CUTOFF
    else:
        verdict = Verdict.SOLUTION_EXISTS
        witness = candidate.top_occupation
        if config.semantics is VariableSemantics.POSITIVE:
            witness = tuple(n + 1 for n in witness)
        if evaluate(p, witness) != 0:
            raise RuntimeError(
                f"internal certificate failure: {witness} does not solve {p}"
            )

    return DecisionReport(
        equation=to_text(p),
        semantics=config.semantics.value,
        cutoff=config.cutoff,
        schedule=tuple(tried),
        verdict=verdict,
        witness=witness,
        **{name: getattr(candidate, name, None) for name in _DESCRIBED},
        successful_time=successful_time,
        criterion="single_state" if config.strict_criterion else "class_aggregate",
        config=config,
        wall_clock_seconds=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[DecisionReport, ...]
    stable: bool
    caveat: str = CUTOFF_CAVEAT


def sweep_configs(
    cutoffs: list[int] | tuple[int, ...], config: DecideConfig
) -> tuple[DecideConfig, ...]:
    """``config`` at each cutoff.  Raises ``ValueError`` for an empty or not
    strictly ascending list and for any cutoff ``DecideConfig`` refuses."""
    cuts = [int(c) for c in cutoffs]
    if not cuts:
        raise ValueError("cutoff list must not be empty")
    if any(b <= a for a, b in zip(cuts, cuts[1:])):
        raise ValueError("cutoffs must be strictly ascending")
    return tuple(replace(config, cutoff=c) for c in cuts)


def truncation_sweep(
    p: Polynomial, cutoffs: list[int] | tuple[int, ...], config: DecideConfig = DecideConfig()
) -> SweepResult:
    """Decide at each cutoff; flag stability when the last two runs agree.

    The whole cutoff list is checked (``sweep_configs``) before the first
    run.  The cutoff stands in for the unknown decisive bound, so agreement
    of the final two verdicts and witnesses is a stopping heuristic only;
    see ``CUTOFF_CAVEAT``.
    """
    reports = tuple(decide(p, c) for c in sweep_configs(cutoffs, config))
    stable = len(reports) >= 2 and (
        reports[-1].verdict == reports[-2].verdict
        and reports[-1].witness == reports[-2].witness
    )
    return SweepResult(reports=reports, stable=stable)


@dataclass(frozen=True)
class MeasurementRun:
    """Simulated repeated measurement of a state in the occupation basis."""

    seed: int
    shots: int
    counts: tuple[int, ...]
    exact_probabilities: tuple[float, ...]

    @property
    def frequencies(self) -> tuple[float, ...]:
        return tuple(c / self.shots for c in self.counts)

    def to_csv(self) -> str:
        lines = ["index,count,frequency,exact_probability"]
        for i, (count, p) in enumerate(zip(self.counts, self.exact_probabilities)):
            lines.append(f"{i},{count},{count / self.shots!r},{p!r}")
        return "\n".join(lines) + "\n"


def sample_measurements(state: StateVector, shots: int, seed: int) -> MeasurementRun:
    """Draw ``shots`` independent basis indices from |psi_i|^2, seeded.

    Identical seeds give identical runs; the exact probabilities travel
    with the sample so frequency errors can be checked against them.
    """
    if not 1 <= shots < 2**63:
        raise ValueError(f"shots must be at least 1 and below 2^63, got {shots}")
    probs = state.probabilities()
    probs = probs / probs.sum()
    counts = np.random.default_rng(seed).multinomial(shots, probs)
    return MeasurementRun(
        seed=int(seed),
        shots=int(shots),
        counts=tuple(int(c) for c in counts),
        exact_probabilities=tuple(float(x) for x in probs),
    )


# -- report serialization ----------------------------------------------------

REPORT_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "decision report",
    "type": "object",
    "required": [
        "schema",
        "equation",
        "semantics",
        "cutoff",
        "schedule",
        "verdict",
        "criterion",
        "config",
        "sidecar",
    ],
    "properties": {
        "schema": {"const": 1},
        "equation": {"type": "string"},
        "semantics": {"enum": ["nonnegative", "positive"]},
        "cutoff": {"type": "integer", "minimum": 1},
        "schedule": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "verdict": {
            "enum": [
                "solution_exists",
                "no_solution_within_cutoff",
                "inconclusive",
            ]
        },
        "witness": {
            "type": ["array", "null"],
            "items": {"type": "integer", "minimum": 0},
        },
        "top_occupation": {
            "type": ["array", "null"],
            "items": {"type": "integer", "minimum": 0},
        },
        "top_probability": {"type": ["number", "null"]},
        "class_probability": {"type": ["number", "null"]},
        "class_size": {"type": ["integer", "null"]},
        "class_value": {"type": ["integer", "null"]},
        "successful_time": {"type": ["number", "null"]},
        "criterion": {"enum": ["class_aggregate", "single_state"]},
        "caveat": {"type": ["string", "null"]},
        "config": {"type": "object"},
        "sidecar": {"type": "object"},
    },
}


def _encode(value, created_utc: str | None = None):
    """The JSON form of a record: a report as ``report_to_json_dict`` writes
    it, any other dataclass as its fields by name, an enum as its value, a
    complex number as ``[re, im]`` and a tuple as a list."""
    if isinstance(value, DecisionReport):
        return report_to_json_dict(value, created_utc)
    if is_dataclass(value):
        return {
            f.name: _encode(getattr(value, f.name), created_utc) for f in fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, tuple):
        return [_encode(v, created_utc) for v in value]
    return value


def report_to_json_dict(report: DecisionReport, created_utc: str | None = None) -> dict:
    """Serializable report; timing lives in the ``sidecar`` field so that
    everything outside it is byte-reproducible for a fixed configuration."""
    data = {f.name: _encode(getattr(report, f.name)) for f in fields(report)}
    sidecar = {
        "wall_clock_seconds": data.pop("wall_clock_seconds"),
        "created_utc": created_utc,
    }
    no_solution = report.verdict is Verdict.NO_SOLUTION_WITHIN_CUTOFF
    caveat = CUTOFF_CAVEAT if no_solution else None
    return {"schema": 1, **data, "caveat": caveat, "sidecar": sidecar}


def sweep_to_json_dict(result: SweepResult, created_utc: str | None = None) -> dict:
    return {"schema": 1, **_encode(result, created_utc)}
