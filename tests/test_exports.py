import ast
import importlib
import math
import pkgutil
from pathlib import Path
from types import SimpleNamespace

import pytest

import adiophantine

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(adiophantine.__path__))
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


@pytest.mark.parametrize("workload", ["decide-1mode", "decide-dense"])
def test_bench_traced_decide_replays_decide(bench, workload):
    # the replay reads DecideConfig.record_grid and tie_tol and
    # EvolutionParams.step_starts_and_sizes
    op = bench.ops.build(workload)[0]
    plain = op.run(bench.tracing.NullTracer())
    tracer = bench.tracing.Tracer()
    traced = op.run(tracer)
    assert op.replay_key(traced) == op.replay_key(plain)
    assert op.check(traced, tracer) == bench.ops.OK
    assert "evolution.evolve" in {span["name"] for span in tracer.spans}


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
