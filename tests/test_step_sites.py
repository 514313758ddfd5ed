"""``src/uavmec`` steps an env from one place: the ``transitions`` stream.

Rollouts, exports and both learners iterate that stream, so a second step
loop would fork the episode bookkeeping again. This lint parses every module
under ``src/uavmec`` and requires exactly one call ``env.step(...)``, inside
``env.transitions``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uavmec"


def step_calls(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``env.step(...)`` call."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "step"
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id == "env"):
                found.append((where, child.lineno))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_finds_calls_by_function():
    source = ("def a(env):\n    env.step(1)\n"
              "def b(env, opt):\n    opt.step()\n    return [env.step(x) for x in ()]\n"
              "env.step(0)\n")
    assert step_calls(source) == [("a", 2), ("b", 5), ("<module>", 6)]


def test_one_step_call_in_src():
    calls = {path.name: step_calls(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py"))}
    sites = [(name, fn) for name, found in calls.items() for fn, _ in found]
    assert sites == [("env.py", "transitions")]
