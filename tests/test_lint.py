"""Static checks on the package source, with nothing but the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "macoord"
MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never references.  ``import a.b`` binds
    ``a``; a quoted annotation counts as a reference to the names in it."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                quoted = ast.walk(ast.parse(note.value))
                used.update(n.id for n in quoted if isinstance(n, ast.Name))
    return sorted(imported - used)


def test_unused_import_scan_finds_planted_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> int:\n    return os.sep\n"
    )
    assert _unused_imports(source) == ["Sequence", "js"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
