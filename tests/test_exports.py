import importlib
import pkgutil

import pytest

import adiophantine

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(adiophantine.__path__))


def test_package_exports_resolve():
    missing = [name for name in adiophantine.__all__ if not hasattr(adiophantine, name)]
    assert missing == []


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"adiophantine.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
