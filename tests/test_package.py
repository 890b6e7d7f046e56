import importlib
import pkgutil

import pytest

import nonloclab

# every public module of the package, and the package itself; importing
# nonloclab.__main__ would run the CLI
_MODULES = ["nonloclab"] + [f"nonloclab.{info.name}" for info in
                            pkgutil.iter_modules(nonloclab.__path__)
                            if not info.name.startswith("_")]


@pytest.mark.parametrize("name", [m for m in _MODULES
                                  if hasattr(importlib.import_module(m), "__all__")])
def test_every_exported_name_resolves(name):
    # a deleted name left behind in __all__ breaks only a star import
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
