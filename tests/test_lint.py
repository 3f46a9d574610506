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
    """``module.name`` of every public module-level function, and
    ``module.Class.name`` of every public method, static method and property
    of a module-level class, that no package module (module name to source)
    reads outside the definition's own body: code that only tests (or
    nothing) call.  A function counts as read by name or as an attribute, a
    method only as an attribute (``x.name``), whichever class defines it."""
    functions, methods, names, attrs = {}, {}, set(), set()

    def read(node, own=None):
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id != own:  # a recursive call is no caller
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and n.attr != own:
                attrs.add(n.attr)

    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            members = [stmt]
            if isinstance(stmt, ast.ClassDef):
                members = stmt.body
                for part in stmt.bases + stmt.keywords + stmt.decorator_list:
                    read(part)
            for node in members:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    read(node)
                    continue
                read(node, own=node.name)
                if node.name.startswith("_"):
                    continue
                if node is stmt:
                    functions[node.name] = module
                else:
                    methods.setdefault(node.name, []).append(f"{module}.{stmt.name}.{node.name}")
    unread = [f"{module}.{name}" for name, module in functions.items() if name not in names | attrs]
    unread += [label for name, labels in methods.items() if name not in attrs for label in labels]
    return sorted(unread)


def test_unreferenced_function_scan_finds_planted_names():
    sources = {
        "a": "def used():\n    return 1\ndef only_tested(n):\n    return only_tested(n - 1)\n"
        "def _private():\n    pass\nclass C:\n    def method(self):\n        pass\n",
        "b": "from .a import used\nimport a\nX = used() + a.C().method()\n",
    }
    assert _unreferenced_functions(sources) == ["a.only_tested"]


def test_unreferenced_method_scan_finds_planted_names():
    sources = {
        "a": "class C:\n    def __init__(self):\n        self.walk()\n"
        "    def walk(self):\n        return 1\n"
        "    def spin(self):\n        return self.spin()\n"
        "    def _hidden(self):\n        pass\n"
        "    @staticmethod\n    def make():\n        return C()\n"
        "    @staticmethod\n    def unmade():\n        return C()\n"
        "    @property\n    def size(self):\n        return 1\n"
        "    @property\n    def shape(self):\n        return (1,)\n"
        "class D(C):\n    def walk(self):\n        pass\n    def named(self):\n        pass\n",
        # a bare name is no method read: ``named`` is read only as a variable
        "b": "from .a import C\nnamed = C.make().size\n",
    }
    assert _unreferenced_functions(sources) == [
        "a.C.shape", "a.C.spin", "a.C.unmade", "a.D.named"
    ]


# Public methods that the package never reads, kept on purpose.
UNREFERENCED_ALLOWED: dict[str, str] = {}


def test_no_function_is_only_called_by_tests():
    unread = _unreferenced_functions({p.stem: p.read_text() for p in MODULES})
    assert unread == sorted(UNREFERENCED_ALLOWED)


def _functions(sources: dict[str, str]):
    """``(module, class or None, def)`` of every module-level function and
    every method of the package sources."""
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            body = node.body if isinstance(node, (ast.Module, ast.ClassDef)) else ()
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield module, getattr(node, "name", None), stmt


def _positional(fn, cls) -> list:
    """The parameters a call fills by position (a method's ``self``/``cls`` dropped)."""
    params = fn.args.posonlyargs + fn.args.args
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    return params[1:] if cls is not None and not static else params


def _label(module, cls, fn, param) -> str:
    return f"{module}.{cls + '.' if cls else ''}{fn.name}({param})"


def _unread_parameters(sources: dict[str, str]) -> list[str]:
    """``module.[Class.]function(param)`` of every parameter its body never
    reads.  A body that only raises NotImplementedError reads nothing by
    design.  A method is one of a protocol: its parameter counts as read if
    any same-named method of the package reads it (``round(f, t)``), except
    ``__init__``, which stands for its own class alone."""
    params, read = [], set()
    for module, cls, fn in _functions(sources):
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) == 1 and isinstance(body[0], ast.Raise):
            if "NotImplementedError" in ast.unparse(body[0]):
                continue
        a = fn.args
        names = [p.arg for p in _positional(fn, cls) + a.kwonlyargs]
        names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        if cls is None:
            key = (module, fn.name)
        else:
            key = (cls, fn.name) if fn.name == "__init__" else fn.name
        loads = {
            n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        read.update((key, name) for name in names if name in loads)
        params.extend((key, name, _label(module, cls, fn, name)) for name in names)
    return sorted(label for key, name, label in params if (key, name) not in read)


def test_unread_parameter_scan_finds_planted_names():
    sources = {
        "a": "def f(x, unused, *rest):\n    return x + sum(rest)\n"
        "class Env:\n    def step(self, t, chosen):\n        return chosen\n"
        "    def __init__(self, seed):\n        pass\n"
        "class Static:\n    def step(self, t, chosen):\n        pass\n"
        "    def __init__(self, seed):\n        self.seed = seed\n"
        "class Base:\n    def value(self, members):\n        \"\"\"Doc.\"\"\"\n"
        "        raise NotImplementedError\n",
    }
    assert _unread_parameters(sources) == ["a.Env.__init__(seed)", "a.Env.step(t)",
                                           "a.Static.step(t)", "a.f(unused)"]


def test_every_parameter_is_read():
    assert _unread_parameters({p.stem: p.read_text() for p in MODULES}) == []


def _unpassed_defaults(sources: dict[str, str]) -> list[str]:
    """``module.[Class.]function(param)`` of every defaulted parameter that no
    call in the sources passes, by keyword, by position or through ``*`` or
    ``**``.  Calls match by the function's name, or by the class name for
    ``__init__``: a name shared by several functions counts every call."""
    calls: dict[str, list] = {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, cls, fn in _functions(sources):
        positional = _positional(fn, cls)
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, p.arg) for i, p in enumerate(positional) if i >= first]
        defaulted += [
            (None, p.arg) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None
        ]
        sites = calls.get(cls if fn.name == "__init__" else fn.name, [])
        for index, name in defaulted:
            if not any(
                any(k.arg in (name, None) for k in call.keywords)
                or any(isinstance(x, ast.Starred) for x in call.args)
                or (index is not None and len(call.args) > index)
                for call in sites
            ):
                unpassed.append(_label(module, cls, fn, name))
    return sorted(unpassed)


def test_unpassed_default_scan_finds_planted_names():
    sources = {
        "a": "def f(x, by_pos=1, by_kw=2, never=3, *, kw_only=4):\n    pass\n"
        "def g(x, star=1, double=2):\n    pass\n"
        "class C:\n    def __init__(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n    def make(k=1):\n        pass\n",
        "b": "f(0, 1, by_kw=2)\ng(*xs)\ng(0, **kw)\nC(5)\nC.make(2)\n",
    }
    assert _unpassed_defaults(sources) == ["a.C.__init__(b)", "a.f(kw_only)", "a.f(never)"]


# Defaulted parameters that the package never passes, kept on purpose.
UNPASSED_ALLOWED = {
    "cli.main(argv)": "tests and the console script pass the arguments",
    "oracle.projected_ascent(start)": "the trap-start tests launch ascent at a vertex",
    "oracle.stationary_point_floor(dr_ratio)": "the paper's weak-DR floors, audited in tests",
    "oracle.stationary_point_floor(lower_ratio)": "the paper's weak-submodular floors, audited",
    "oracle.stationary_point_floor(upper_ratio)": "the paper's weak-submodular floors, audited",
}


def test_every_default_is_passed_somewhere():
    unpassed = _unpassed_defaults({p.stem: p.read_text() for p in MODULES})
    assert unpassed == sorted(UNPASSED_ALLOWED)
