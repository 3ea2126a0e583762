"""The demos import only names that exist in the package.

Each script under `demos/` is parsed, not run: every `from diracdg... import
name` must name an attribute of that module, and every `import diracdg...`
a module that imports.  A removal in the package that a demo still uses
fails here instead of at the demo's first run.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _package_imports(path):
    """(module, name or None) for each import of the package in the script."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                node.module.split(".")[0] == "diracdg"):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "diracdg")


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    found = list(_package_imports(path))
    assert found, f"{path.name} imports nothing from diracdg"
    for module, name in found:
        mod = importlib.import_module(module)
        if name is not None:
            assert name == "*" or hasattr(mod, name), f"{path.name}: {module}.{name}"
