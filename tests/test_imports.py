"""Every name a module imports is used in that module, and every private
name the package defines is read somewhere in it.

No linter runs here, so this parses the package's modules with ast. It
fails on an imported name the module never reads (__init__.py is left
out: its imports are the re-exports), and on a module-level _name (a
function, a class or an assignment target) or a private method that no
module of the package reads: dead code that the tests alone keep alive.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import diam_ramsey

_MODULES = sorted(
    path
    for path in Path(diam_ramsey.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {line}: {name}"
        for name, line in imported.items()
        if name not in used
    ]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_every_import_is_used(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_an_unused_import_is_found() -> None:
    tree = ast.parse(
        "import os\nfrom a.b import c, d as e\nfrom .x import y\n"
        "os.sep\ny()\n"
    )
    assert _unused_imports(tree) == ["line 2: c", "line 2: e"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level private functions, classes and assignment targets, and
    the private methods of module-level classes, by name and line."""
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in ast.walk(node):
                if isinstance(name, ast.Name) and isinstance(
                    name.ctx, ast.Store
                ):
                    defined[name.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined[item.name] = item.lineno
    return {
        name: line
        for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__")
    }


def _reads(tree: ast.Module) -> set[str]:
    """Names the module loads, attributes it loads, and names it imports."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def _unread_private_names(trees: dict[str, ast.Module]) -> list[str]:
    read = set().union(*map(_reads, trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_every_private_name_is_read() -> None:
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(diam_ramsey.__file__).parent.glob("*.py")
    }
    assert _unread_private_names(trees) == []


def test_an_unread_private_name_is_found() -> None:
    trees = {
        "a.py": ast.parse(
            "_A = 1\n_B: int = 2\n_C, D = 3, 4\n__all__ = []\n"
            "def _f(): return _A\n"
            "class _K:\n"
            "    def __init__(self): self._x = 0\n"
            "    def _used(self): pass\n"
            "    def _unused(self): pass\n"
        ),
        "b.py": ast.parse("from .a import _f, _K\n_K()._used()\n"),
    }
    assert _unread_private_names(trees) == [
        "a.py line 2: _B", "a.py line 3: _C", "a.py line 9: _unused",
    ]
