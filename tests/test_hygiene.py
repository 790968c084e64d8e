"""Source hygiene: every module-level import in the package and the
tests is used by the module that makes it, and the package reaches
scipy only through its public modules."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "slicenet").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def _bound_names(node: ast.stmt):
    """The names an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.asname:
            yield alias.asname
        else:
            # ``import a.b`` binds ``a``
            yield alias.name.split(".")[0]


def _module_imports(tree: ast.Module):
    """Imports at module level, including those under ``if`` and
    ``try`` blocks there (``if TYPE_CHECKING:``), not inside any
    function or class."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            pending.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level import never referenced."""
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in ``__all__`` are used by being exported
    used |= {
        elt.value
        for n in ast.walk(tree)
        if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
        for elt in getattr(n.value, "elts", ())
        if isinstance(elt, ast.Constant)
    }
    return [
        (node.lineno, name)
        for node in _module_imports(tree)
        for name in _bound_names(node)
        if name not in used
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from json import dumps, loads\n"
        "def f():\n"
        "    import re\n"
        "    return sys.argv, loads\n"
    )
    assert sorted(unused_imports(source)) == [(2, "os"), (6, "dumps")]


def private_scipy_imports(source: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` of each import, at any depth, that reaches
    a private part of scipy: a module or name whose path below
    ``scipy`` has a component starting with an underscore."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "scipy" and any(p.startswith("_") for p in parts[1:]):
                found.append((node.lineno, path))
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_scipy_imports(path):
    assert private_scipy_imports(path.read_text()) == []


def test_the_scan_finds_a_private_scipy_import():
    source = (
        "import scipy.optimize._milp\n"
        "from scipy.optimize import milp, _linprog_highs\n"
        "from scipy.optimize._highspy import _highs_wrapper\n"
        "from scipy.sparse import csc_array\n"
        "from . import _local\n"
        "def f():\n"
        "    from scipy.optimize._highspy._core import run\n"
        "    return run\n"
    )
    assert private_scipy_imports(source) == [
        (1, "scipy.optimize._milp"),
        (2, "scipy.optimize._linprog_highs"),
        (3, "scipy.optimize._highspy._highs_wrapper"),
        (7, "scipy.optimize._highspy._core.run"),
    ]
