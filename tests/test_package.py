import ast
import importlib
import pkgutil
from pathlib import Path

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


def _unused_imports(source: str) -> list[str]:
    """The names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_what_it_guards():
    assert _unused_imports("from dataclasses import dataclass, replace\n@dataclass\n"
                           "class A:\n    pass\n") == ["replace (line 1)"]
    assert _unused_imports("from __future__ import annotations\nimport numpy as np\n"
                           "import os.path\nfrom . import x\n__all__ = ['x']\n"
                           "def f(a: np.ndarray):\n    return os.path.sep\n") == []


@pytest.mark.parametrize("path", sorted(Path(nonloclab.__file__).parent.glob("*.py"))
                         + sorted(Path(__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    # no linter ships with the package's toolchain; a deletion that leaves
    # its import behind fails here
    assert _unused_imports(path.read_text()) == []
