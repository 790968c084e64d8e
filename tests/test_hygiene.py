"""Source hygiene: every module-level import in the package and the
tests is used by the module that makes it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "slicenet").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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
