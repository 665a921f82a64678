"""Every name a module lists in ``__all__`` exists, so ``from detmc.x import *`` works."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import detmc

MODULES = ["detmc"] + [
    f"detmc.{m.name}" for m in pkgutil.iter_modules(detmc.__path__) if m.name != "__main__"
]
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"


def test_the_modules_bind_every_name_the_bench_tracer_patches():
    # the tracer swaps its wrappers in by module attribute, so a name it patches
    # must stay bound even where the library no longer calls it
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in tracing._PATCHES
               if not hasattr(owner, attr)]
    assert not missing, f"bench/tracing.py patches unbound names {missing}"
    patched = {owner.__name__ for owner, *_ in tracing._PATCHES}
    assert {"detmc.estimators", "detmc.sampling"} <= patched
