"""No module imports a name it never uses, and ``src/`` keeps no leftover code.

No linter ships with the project, so this is its lint step: each module
under ``src/``, ``tests/`` and ``demos/`` is parsed, and every name an
import binds must be read somewhere in that module, as a name, the root of
an attribute chain, or an entry of ``__all__``. ``from __future__`` imports
are exempt. In ``src/`` two more kinds of leftover are flagged:

- a local variable that a function assigns and never reads (an augmented
  assignment ``x += ...`` counts as a read; names starting with ``_`` are
  exempt);
- a module-private name (``_helper``, not ``__dunder__``), a module-level
  function, class or assignment or a method, that no module of ``src/``
  references.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name the source never reads."""
    tree = ast.parse(source)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:   # "import a.b" binds "a"
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def unread_locals(source: str) -> list[str]:
    """'name (line n)' for each local variable a function assigns and never
    reads. A nested function's reads count for the function around it."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, read = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    read.add(node.id)
        found.update((line, name) for name, line in stored.items()
                     if name not in read and not name.startswith("_"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def referenced_names(source: str) -> set[str]:
    """Every name the source reads, as a name or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def unreferenced_privates(source: str, referenced: set[str]) -> list[str]:
    """'name (line n)' for each module-private name the source defines, at
    module level or as a method, that is not in referenced."""
    body = ast.parse(source).body
    nodes = body + [m for c in body if isinstance(c, ast.ClassDef) for m in c.body]
    defined = {}
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, node.lineno)
    return [f"{name} (line {line})" for name, line in defined.items()
            if name not in referenced]


SRC_REFERENCES = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                               for p in SRC_MODULES))


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\n"
              "__all__ = ['pi']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 3)", "tau (line 5)"]


def test_leftover_checkers_flag_only_unread_names():
    source = ("def f(a, b):\n"
              "    total = 0\n"
              "    total += a\n"
              "    spare = a * 2\n"
              "    used, _, idle = b\n"
              "    for i in range(3):\n"
              "        pass\n"
              "    def g():\n"
              "        return used\n"
              "    return g\n")
    assert unread_locals(source) == ["spare (line 4)", "idle (line 5)", "i (line 6)"]
    source = ("_LIMIT = 3\n"
              "_SPARE = 4\n"
              "def _used():\n    return _LIMIT\n"
              "def _unused():\n    pass\n"
              "class Box:\n"
              "    def __init__(self):\n        self._fill()\n"
              "    def _fill(self):\n        pass\n"
              "    def _drain(self):\n        pass\n"
              "x = _used()\n")
    assert unreferenced_privates(source, referenced_names(source)) == [
        "_SPARE (line 2)", "_unused (line 5)", "_drain (line 12)"]


def test_modules_found():
    assert any(p.name == "env.py" for p in MODULES)
    assert any(p.name == "test_env.py" for p in MODULES)
    assert any(p.parent.name == "demos" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_leftover_code(path):
    source = path.read_text(encoding="utf-8")
    assert unread_locals(source) == []
    assert unreferenced_privates(source, SRC_REFERENCES) == []
