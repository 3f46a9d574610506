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


def _unreferenced_functions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every public module-level function of the package
    sources (module name to source) that no package module reads, by name or
    as an attribute, outside the function's own body: code that only tests
    (or nothing) call."""
    defined, read = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names.update(n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.discard(stmt.name)  # a recursive call is no caller
                if not stmt.name.startswith("_"):
                    defined[stmt.name] = module
            read |= names
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in read)


def test_unreferenced_function_scan_finds_planted_names():
    sources = {
        "a": "def used():\n    return 1\ndef only_tested(n):\n    return only_tested(n - 1)\n"
        "def _private():\n    pass\nclass C:\n    def method(self):\n        pass\n",
        "b": "from .a import used\nimport a\nX = used() + a.C().method()\n",
    }
    assert _unreferenced_functions(sources) == ["a.only_tested"]


def test_no_function_is_only_called_by_tests():
    assert _unreferenced_functions({p.stem: p.read_text() for p in MODULES}) == []
