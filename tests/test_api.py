"""Every public name the package promises exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import sscusum

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(sscusum.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    mod = importlib.import_module(f"sscusum.{module}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names), "a name is listed twice"
    assert [name for name in names if not hasattr(mod, name)] == []


def test_every_package_reexport_is_public_in_its_module():
    tree = ast.parse(Path(sscusum.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"sscusum.{node.module}")
        for alias in node.names:
            name = alias.asname or alias.name
            assert hasattr(sscusum, name), name
            assert alias.name in getattr(mod, "__all__", []), f"{node.module}.{alias.name}"
