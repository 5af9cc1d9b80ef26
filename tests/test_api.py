"""Every public name the package promises exists, and every module uses
what it imports."""

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


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    """The project configures no linter, so this check keeps a deletion from
    leaving a dead import behind. The package's own re-exports are checked
    above."""
    tree = ast.parse(Path(sscusum.__path__[0], f"{module}.py").read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
