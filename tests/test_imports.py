"""Every name a module imports is used in that module.

No linter runs here, so this parses the package's modules with ast and
fails on an imported name the module never reads. __init__.py is left
out: its imports are the re-exports.
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
