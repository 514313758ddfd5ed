"""No module imports a name it never uses.

No linter ships with the project, so this is its lint step: each module
under ``src/``, ``tests/`` and ``demos/`` is parsed, and every name an
import binds must be read somewhere in that module, as a name, the root of
an attribute chain, or an entry of ``__all__``. ``from __future__`` imports
are exempt.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


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


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport numpy as np\n"
              "from math import pi, tau\n"
              "__all__ = ['pi']\n"
              "x = np.zeros(1)\n")
    assert unused_imports(source) == ["os (line 3)", "tau (line 5)"]


def test_modules_found():
    assert any(p.name == "env.py" for p in MODULES)
    assert any(p.name == "test_env.py" for p in MODULES)
    assert any(p.parent.name == "demos" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
