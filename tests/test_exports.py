import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import netcoh

MODULES = ["netcoh"] + [f"netcoh.{m.name}" for m in pkgutil.iter_modules(netcoh.__path__)]


def _exported(module) -> list[str]:
    """The module's __all__, and for the package also every name its
    __init__ imports."""
    names = list(getattr(module, "__all__", []))
    if module is netcoh:
        tree = ast.parse(inspect.getsource(netcoh))
        names += [alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names]
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in _exported(module) if not hasattr(module, n)]
    assert missing == []
    exec(f"from {name} import *", {})


def _names_used(node, own: str):
    """Every Name and attribute in node's tree, outside the def or class named own."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == own:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _names_used(child, own)


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_public_name_is_used_or_documented(name):
    """A name in __all__ is called by the package, or shown in the README."""
    trees = [ast.parse(inspect.getsource(importlib.import_module(m))) for m in MODULES]
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    unused = [n for n in getattr(importlib.import_module(name), "__all__", [])
              if not any(n in _names_used(tree, n) for tree in trees)
              and not re.search(rf"\b{n}\b", readme)]
    assert unused == []
