"""Operations of the three workloads and the oracle check of each output.

An operation's ``run`` calls the library; its ``check`` compares the output
with an oracle that does not share the code under test and returns one of
``OK``, ``FALSE_CERTIFICATE`` or ``INCONCLUSIVE``.  Any other disagreement
raises :class:`CheckFailed`, which fails the whole run.

Under a :class:`tracing.Tracer` the decide operations replay the decision
loop through public calls so that each module gets its own span; under a
``NullTracer`` they call ``decide`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import corpus
from adiophantine import (
    AdiabaticFamily,
    DecideConfig,
    EvolutionParams,
    FockBasis,
    Integrator,
    Verdict,
    VariableSemantics,
    brute_force_search,
    decide,
    evaluate,
    evolve,
    identify_ground_state,
    min_over_box,
    parse_equation,
    problem_diagonal,
    spectral_profile,
    substitute_shift,
)

OK = "ok"
FALSE_CERTIFICATE = "false_certificate"
INCONCLUSIVE = "inconclusive"


class CheckFailed(Exception):
    """An output disagrees with its oracle in a way the benchmark does not
    count as a known defect."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable
    check: Callable
    # fields that a traced replay must reproduce exactly, or None
    replay_key: Callable | None = None


class BoxMin(NamedTuple):
    value: int
    argmin: tuple[int, ...]
    multiplicity: int


def box_oracle(p, bound: int) -> BoxMin:
    """Minimum of p(n)^2 on [0, bound]^k by vectorized int64 evaluation.

    Independent of ``min_over_box``; the argmin is the graded-lex first one.
    """
    k = p.num_vars
    points = np.indices((bound + 1,) * k).reshape(k, -1).astype(np.int64)
    values = np.zeros(points.shape[1], dtype=np.int64)
    for exponents, coefficient in p.terms:
        term = np.full(points.shape[1], coefficient, dtype=np.int64)
        for coordinate, e in zip(points, exponents):
            term *= coordinate**e
        values += term
    if np.abs(values).max() >= 2**31:
        raise ValueError("box values too large for the int64 oracle")
    squares = values * values
    best = squares.min()
    hits = points[:, squares == best].T.tolist()
    argmin = min((tuple(h) for h in hits), key=lambda t: (sum(t), t))
    return BoxMin(int(best), argmin, len(hits))


# -- decide ------------------------------------------------------------------


class Decision(NamedTuple):
    """The fields of a ``DecisionReport`` that the replay reproduces."""

    schedule: tuple[float, ...]
    successful_time: float | None
    class_probability: float | None
    class_value: int | None
    verdict: Verdict
    witness: tuple[int, ...] | None


def replay_decide(p, config: DecideConfig, tracer) -> Decision:
    """``decide``'s loop through public calls, one span per call."""
    with tracer.span("diophantine.substitute_shift"):
        shifted = substitute_shift(p, config.semantics)
    with tracer.span("fock.FockBasis"):
        basis = FockBasis(shifted.num_vars, config.cutoff)
    with tracer.span("hamiltonians.from_polynomial", d=basis.dimension):
        family, start = AdiabaticFamily.from_polynomial(shifted, basis, alphas=config.alphas)
    tried: list[float] = []
    candidate = None
    successful_time = None
    for total_time in config.time_schedule():
        tried.append(total_time)
        params = EvolutionParams(
            total_time=total_time,
            step=min(config.step, total_time),
            integrator=config.integrator,
            record_grid=config.record_grid,
        )
        steps = len(params.step_starts_and_sizes()[1])
        with tracer.span("evolution.evolve", d=basis.dimension, steps=steps) as rung:
            trace = evolve(family, start, params)
        with tracer.span("decision.identify_ground_state"):
            candidate = identify_ground_state(
                trace, family, tie_tol=config.tie_tol, strict=config.strict_criterion
            )
        rung["identified"] = candidate is not None
        if candidate is not None:
            successful_time = total_time
            break
    if candidate is None:
        return Decision(tuple(tried), None, None, None, Verdict.INCONCLUSIVE, None)
    witness = candidate.top_occupation
    if config.semantics is VariableSemantics.POSITIVE:
        witness = tuple(n + 1 for n in witness)
    if candidate.class_value == 0:
        verdict = Verdict.SOLUTION_EXISTS
    else:
        verdict = Verdict.NO_SOLUTION_WITHIN_CUTOFF
        witness = None
    return Decision(
        tuple(tried),
        successful_time,
        candidate.class_probability,
        candidate.class_value,
        verdict,
        witness,
    )


def decide_op(text: str, cutoff: int) -> Op:
    p = parse_equation(text)
    config = DecideConfig(cutoff=cutoff)
    shifted = substitute_shift(p, config.semantics)
    points = (cutoff + 1) ** p.num_vars

    def run(tracer):
        if not tracer.enabled:
            return decide(p, config)
        with tracer.span("decision.decide"):
            return replay_decide(p, config, tracer)

    def check(report, tracer):
        with tracer.span("diophantine.min_over_box", points=points):
            oracle = min_over_box(shifted, cutoff)
        if report.verdict is Verdict.INCONCLUSIVE:
            return INCONCLUSIVE
        if report.verdict is Verdict.SOLUTION_EXISTS:
            with tracer.span("diophantine.evaluate"):
                residual = evaluate(p, report.witness)
            if residual != 0:
                raise CheckFailed(f"{text}: witness {report.witness} gives {residual}")
        if report.class_value != oracle.value:
            return FALSE_CERTIFICATE
        return OK

    def replay_key(report):
        return (
            report.schedule,
            report.successful_time,
            report.class_probability,
            report.verdict,
        )

    return Op(f"decide:{text}@{cutoff}", run, check, replay_key)


# -- certify -----------------------------------------------------------------


def _family(tracer, p, cutoff):
    with tracer.span("fock.FockBasis"):
        basis = FockBasis(p.num_vars, cutoff)
    with tracer.span("hamiltonians.from_polynomial", d=basis.dimension):
        return AdiabaticFamily.from_polynomial(p, basis)


def spectral_op(text: str, cutoff: int) -> Op:
    p = parse_equation(text)
    oracle = box_oracle(p, cutoff)
    anchor = corpus.GAP_ANCHORS.get(text) if cutoff == 8 else None

    def run(tracer):
        family, _ = _family(tracer, p, cutoff)
        with tracer.span(
            "hamiltonians.spectral_profile",
            d=family.dimension,
            eigensolves=corpus.GRID_SIZE,
        ):
            return spectral_profile(family, grid_size=corpus.GRID_SIZE)

    def check(profile, tracer):
        if profile.crossing_suspected:
            raise CheckFailed(f"{text}: level crossing suspected")
        if profile.ground_degeneracy != oracle.multiplicity:
            raise CheckFailed(
                f"{text}: ground degeneracy {profile.ground_degeneracy}, "
                f"box oracle {oracle.multiplicity}"
            )
        ground = float(profile.energies[-1, 0])
        if abs(ground - oracle.value) > 1e-9 * max(1, oracle.value):
            raise CheckFailed(f"{text}: E0(s=1) = {ground}, box oracle {oracle.value}")
        if anchor is not None and abs(profile.min_class_gap - anchor) > 1e-6 * max(1.0, anchor):
            raise CheckFailed(f"{text}: class gap {profile.min_class_gap}, anchor {anchor}")
        return OK

    return Op(f"spectral:{text}@{cutoff}", run, check)


def integrators_op() -> Op:
    text, cutoff, total_time, step, tolerance = corpus.INTEGRATORS
    p = parse_equation(text)

    def run(tracer):
        family, start = _family(tracer, p, cutoff)
        finals = []
        for integrator in (Integrator.RK4, Integrator.MIDPOINT_EXPONENTIAL):
            params = EvolutionParams(total_time, step, integrator=integrator, record_grid=2)
            steps = len(params.step_starts_and_sizes()[1])
            with tracer.span(
                "evolution.evolve", d=family.dimension, steps=steps, integrator=integrator.value
            ):
                finals.append(evolve(family, start, params).final_probabilities())
        return finals

    def check(finals, tracer):
        difference = float(np.abs(finals[0] - finals[1]).max())
        if not difference <= tolerance:
            raise CheckFailed(f"{text}: |p_rk4 - p_midexp| = {difference:.3e} > {tolerance}")
        return OK

    return Op(f"integrators:{text}@{cutoff}", run, check)


def box_op(text: str, bound: int) -> Op:
    p = parse_equation(text)
    oracle = box_oracle(p, bound)
    points = (bound + 1) ** p.num_vars

    def run(tracer):
        with tracer.span("diophantine.min_over_box", points=points):
            return min_over_box(p, bound)

    def check(result, tracer):
        if tuple(result) != tuple(oracle):
            raise CheckFailed(f"{text}: min_over_box {tuple(result)}, oracle {tuple(oracle)}")
        return OK

    return Op(f"box:{text}@{bound}", run, check)


def full_scan_op(text: str, bound: int) -> Op:
    p = parse_equation(text)
    oracle = box_oracle(p, bound)
    expected = oracle.argmin if oracle.value == 0 else None
    points = (bound + 1) ** p.num_vars

    def run(tracer):
        with tracer.span("diophantine.brute_force_search", points=points):
            return brute_force_search(p, bound)

    def check(result, tracer):
        if result != expected:
            raise CheckFailed(f"{text}: brute_force_search {result}, oracle {expected}")
        return OK

    return Op(f"scan:{text}@{bound}", run, check)


def diagonal_op(text: str, cutoff: int) -> Op:
    p = parse_equation(text)
    basis = FockBasis(p.num_vars, cutoff)
    oracle = min_over_box(p, cutoff)
    independent = box_oracle(p, cutoff)

    def run(tracer):
        with tracer.span("hamiltonians.problem_diagonal", d=basis.dimension, points=basis.dimension):
            return problem_diagonal(p, basis)

    def check(values, tracer):
        if tuple(oracle) != tuple(independent):
            raise CheckFailed(f"{text}: min_over_box {tuple(oracle)}, oracle {tuple(independent)}")
        if min(values) != oracle.value or values.count(oracle.value) != oracle.multiplicity:
            raise CheckFailed(f"{text}: diagonal minimum {min(values)}, min_over_box {oracle.value}")
        return OK

    return Op(f"diagonal:{text}@{cutoff}", run, check)


def build(workload: str) -> list[Op]:
    """The workload's operations, in corpus order."""
    if workload == "decide-1mode":
        return [decide_op(text, cutoff) for text, cutoff in corpus.DECIDE_1MODE]
    if workload == "decide-dense":
        return [decide_op(text, cutoff) for text, cutoff in corpus.DECIDE_DENSE]
    if workload == "certify":
        ops = [spectral_op(text, cutoff) for text, cutoff in corpus.SPECTRAL]
        ops.append(integrators_op())
        ops += [box_op(text, bound) for text, bound in corpus.BOX_MINIMA]
        ops.append(full_scan_op(*corpus.FULL_SCAN))
        ops.append(diagonal_op(*corpus.BIG_DIAGONAL))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
