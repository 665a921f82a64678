"""Every name a module lists in ``__all__`` exists, so ``from detmc.x import *`` works."""

import importlib
import pkgutil

import pytest

import detmc

MODULES = ["detmc"] + [
    f"detmc.{m.name}" for m in pkgutil.iter_modules(detmc.__path__) if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
