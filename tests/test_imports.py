"""Every name a module imports is used in that module, and every private
name the package defines is read somewhere in it.

No linter runs here, so this parses the package's modules with ast. It
fails on an imported name the module never reads (__init__.py is left
out: its imports are the re-exports), and on a module-level _name (a
function, a class or an assignment target) or a private method that no
module of the package reads: dead code that the tests alone keep alive.
It also fails on a local name that a function binds and never reads.
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


def _unread_locals(tree: ast.Module) -> list[str]:
    """Names a function binds in its own body (assignment, loop, with and
    comprehension targets, except-as names, nested def and class names)
    and never reads anywhere in its body, nested functions included. A
    nonlocal or global declaration counts as a read, parameters are not
    checked, and _names are exempt."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Nonlocal, ast.Global)):
                read.update(node.names)
        bound: dict[str, int] = {}
        stack = list(func.body)
        while stack:
            node = stack.pop()
            name = None
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.ExceptHandler):
                name = node.name
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = node.name
            if name:
                bound[name] = min(node.lineno, bound.get(name, node.lineno))
            # A nested function, class or lambda binds in its own scope.
            if not isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                stack.extend(ast.iter_child_nodes(node))
        found += [
            (line, f"line {line}: {func.name}: {name}")
            for name, line in bound.items()
            if name not in read and not name.startswith("_")
        ]
    return [text for _line, text in sorted(found)]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_every_local_is_read(path: Path) -> None:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unread_locals(tree) == []


def test_an_unread_local_is_found() -> None:
    tree = ast.parse(
        "def f(a, unused_arg):\n"
        "    n = len(a)\n"
        "    total = 0\n"
        "    for i, x in enumerate(a):\n"
        "        total += x\n"
        "    hits = 0\n"
        "    def g():\n"
        "        nonlocal hits\n"
        "        hits = 1\n"
        "        kept = [y for y in a]\n"
        "    def h():\n"
        "        return a\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        _, _k = 1, 2\n"
        "    return h\n"
    )
    assert _unread_locals(tree) == [
        "line 2: f: n",
        "line 3: f: total",
        "line 4: f: i",
        "line 7: f: g",
        "line 10: g: kept",
        "line 15: f: exc",
    ]
