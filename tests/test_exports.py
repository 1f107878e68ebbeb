import ast
import importlib
import inspect
import pkgutil

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

