"""The public names: every module's ``__all__`` resolves, and the package
re-exports only names its modules declare public."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import mixedfp

MODULES = sorted(m.name for m in pkgutil.iter_modules(mixedfp.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"mixedfp.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_imports_are_public():
    tree = ast.parse(inspect.getsource(mixedfp))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"mixedfp.{node.module}")
        for alias in node.names:
            assert hasattr(mixedfp, alias.name)
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
