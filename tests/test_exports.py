import ast
import importlib
import importlib.util
import math
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import adiophantine
from adiophantine.decision import DecideConfig, Verdict, decide
from adiophantine.diophantine import min_over_box, parse_equation, substitute_shift
from adiophantine.evolution import SPLIT_MIN_DIMENSION, SPLIT_TOLERANCE, Integrator
from adiophantine.fock import FockBasis
from adiophantine.hamiltonians import AdiabaticFamily, problem_diagonal

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(adiophantine.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_corpus():
    """``bench/corpus.py``, data only, loaded to parametrize tests over it."""
    spec = importlib.util.spec_from_file_location("corpus", BENCH / "corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


CORPUS = _bench_corpus()
FALSE_CERTIFICATES = frozenset().union(*CORPUS.SEED_FALSE_CERTIFICATES.values())


def test_package_exports_resolve():
    missing = [name for name in adiophantine.__all__ if not hasattr(adiophantine, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"adiophantine.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _bench_references(tree):
    """(module, name) for every ``from adiophantine... import name`` and
    every ``adiophantine.name`` attribute in one parsed file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "adiophantine"
        ):
            for alias in node.names:
                yield node.module, alias.name
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "adiophantine"
        ):
            yield "adiophantine", node.attr


def _resolves(module, name):
    mod = importlib.import_module(module)
    if hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_bench_imports_resolve():
    # the benchmark is not run by the test suite, so a removed name it
    # imports would otherwise go unseen
    references = [
        (path.name, module, name)
        for path in sorted(BENCH.glob("*.py"))
        for module, name in _bench_references(ast.parse(path.read_text()))
    ]
    assert len(references) > 20
    missing = [ref for ref in references if not _resolves(*ref[1:])]
    assert missing == []


def test_bench_cli_call(tmp_path):
    # bench/probes.py times this exact call for cli.decide_overhead_s
    from adiophantine import cli

    assert cli.main(["decide", "x - 1", "--out", str(tmp_path)]) == cli.EXIT_OK


# The benchmark's files are frozen between benchmark changes, so the library
# attributes they read must keep working; the calls below reach each of them.


@pytest.fixture
def bench(monkeypatch):
    # the benchmark's modules import each other by their plain names
    monkeypatch.syspath_prepend(str(BENCH))
    names = ("corpus", "ops", "probes", "tracing")
    return SimpleNamespace(**{name: importlib.import_module(name) for name in names})


@pytest.mark.parametrize(
    "build, outcome",
    [
        (lambda ops: ops.build("decide-1mode")[0], "OK"),
        (lambda ops: ops.build("decide-dense")[0], "OK"),
        # several rungs each: split (m = 45, four rungs) and the midpoint
        # exponential (m = 9, two rungs), whose step loops the replay
        # repeats; ``x - 7`` is one of the known false certificates
        (lambda ops: ops.decide_op("x*y - 6", 8), "OK"),
        (lambda ops: ops.decide_op("x - 7", 8), "FALSE_CERTIFICATE"),
    ],
    ids=["decide-1mode", "decide-dense", "split-x*y-6@8", "midexp-x-7@8"],
)
def test_bench_traced_decide_replays_decide(bench, build, outcome):
    # the replay reads the class constants DecideConfig.tie_tol and
    # DecideConfig.record_grid (so it steps exactly the runs decide steps)
    # and EvolutionParams.step_starts_and_sizes
    op = build(bench.ops)
    plain = op.run(bench.tracing.NullTracer())
    tracer = bench.tracing.Tracer()
    traced = op.run(tracer)
    assert op.replay_key(traced) == op.replay_key(plain)
    assert op.check(traced, tracer) == getattr(bench.ops, outcome)
    rungs = [span for span in tracer.spans if span["name"] == "evolution.evolve"]
    assert len(rungs) == len(plain.schedule)


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
@pytest.mark.parametrize(
    "text, cutoff",
    [
        pytest.param(
            text,
            cutoff,
            id=f"{text}@{cutoff}",
            # decide certifies no solution although the box holds a zero
            marks=[pytest.mark.xfail(strict=True, reason="ROADMAP Fix-first 1")]
            if text in FALSE_CERTIFICATES
            else [],
        )
        for text, cutoff in CORPUS.DECIDE_1MODE + CORPUS.DECIDE_DENSE
    ],
)
def test_decide_on_the_bench_equations_agrees_with_the_box_oracle(text, cutoff):
    # the benchmark's own config: DecideConfig at the corpus cutoff
    p = parse_equation(text)
    config = DecideConfig(cutoff=cutoff)
    report = decide(p, config)
    if report.verdict is not Verdict.INCONCLUSIVE:
        oracle = min_over_box(substitute_shift(p, config.semantics), cutoff)
        assert report.class_value == oracle.value


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
@pytest.mark.parametrize(
    "text, cutoff", CORPUS.DECIDE_1MODE, ids=[f"{t}@{c}" for t, c in CORPUS.DECIDE_1MODE]
)
def test_decide_below_the_split_bar_keeps_the_midpoint_verdicts(text, cutoff):
    # every rung here runs CF4 at 4h in place of the midpoint exponential at
    # h: the same schedule and named class, class probabilities within the
    # split's tolerance
    p = parse_equation(text)
    cf4 = decide(p, DecideConfig(cutoff=cutoff))
    midexp = decide(
        p, DecideConfig(cutoff=cutoff, integrator=Integrator.MIDPOINT_EXPONENTIAL)
    )
    for name in ("schedule", "verdict", "witness", "class_value", "top_occupation"):
        assert getattr(cf4, name) == getattr(midexp, name), name
    assert abs(cf4.class_probability - midexp.class_probability) <= SPLIT_TOLERANCE


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
def test_the_split_bar_has_a_bench_workload_on_each_side():
    # split runs from sector dimension SPLIT_MIN_DIMENSION on, CF4 below it:
    # the benchmark times each side of that fork, decide-1mode the smaller
    # sectors and decide-dense the larger
    def sector_dimension(text, cutoff):
        config = DecideConfig(cutoff=cutoff)
        p = substitute_shift(parse_equation(text), config.semantics)
        basis = FockBasis(p.num_vars, cutoff)
        family, start = AdiabaticFamily.from_polynomial(p, basis, config.alphas)
        return family.sector_for(start).dimension

    small = {sector_dimension(*equation) for equation in CORPUS.DECIDE_1MODE}
    large = {sector_dimension(*equation) for equation in CORPUS.DECIDE_DENSE}
    assert max(small) < SPLIT_MIN_DIMENSION <= min(large)
    assert (small, large) == ({9}, {21, 35, 45, 75})


# the 21 decide equations and the certify diagonal at d = 4913
_DIAGONALS = CORPUS.DECIDE_1MODE + CORPUS.DECIDE_DENSE + (CORPUS.BIG_DIAGONAL,)


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
@pytest.mark.parametrize("text, cutoff", _DIAGONALS, ids=[f"{t}@{c}" for t, c in _DIAGONALS])
def test_family_problem_values_are_the_problem_diagonal(text, cutoff):
    # the family is built from the int64 squares, not from the interned tuple
    # that ``problem_diagonal`` returns; both hold the same integers
    p = substitute_shift(parse_equation(text), DecideConfig(cutoff=cutoff).semantics)
    basis = FockBasis(p.num_vars, cutoff)
    family, _ = AdiabaticFamily.from_polynomial(p, basis)
    expected = np.array(problem_diagonal(p, basis))
    assert family.problem_values.dtype == expected.dtype == np.int64
    assert family.problem_values.tobytes() == expected.tobytes()


def test_bench_traced_spectral_op(bench):
    assert ("x + y - 5", 8) in bench.corpus.SPECTRAL
    op = bench.ops.spectral_op("x + y - 5", 8)
    tracer = bench.tracing.Tracer()
    assert op.check(op.run(tracer), tracer) == bench.ops.OK


@pytest.mark.filterwarnings("ignore::adiophantine.fock.TruncationWarning")
def test_bench_probes_run(bench, monkeypatch, tmp_path):
    # the probes read annihilation and hamiltonian(s).eigenvalues; one call
    # of each probe is enough here
    monkeypatch.setattr(bench.probes, "MIN_PROBE_S", 0.0)
    metrics = bench.probes.run(bench.corpus.equations("decide-1mode"), tmp_path)
    assert "fock.annihilation_s.d729" in metrics
    assert "hamiltonians.eigensolve_ms.d729" in metrics
    assert all(math.isfinite(value) for value in metrics.values())
    assert list(tmp_path.iterdir()) == []
