import importlib
import pkgutil

import pytest

import racerank

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(racerank.__path__))


@pytest.mark.parametrize("module_name", ["racerank"] + [f"racerank.{m}" for m in SUBMODULES])
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
