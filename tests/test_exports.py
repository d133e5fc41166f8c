import ast
import importlib
import pkgutil
from pathlib import Path

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
