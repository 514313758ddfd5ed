"""``src/uavmec`` checks its inputs at the boundary, once.

Config sections are frozen and check themselves in ``__post_init__``, so a
config that exists is valid. A consumer calling ``.validate()`` again would
only hide a section that failed to check itself. This lint parses every
module under ``src/uavmec`` and allows ``.validate(...)`` calls only in
``config.py``.

The slot formulas take values from a built config or from the env, which
keeps them in their domains, and check nothing: a ``raise`` in one of the
formula modules would be a check that no entry point can reach.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uavmec"
FORMULA_MODULES = ("channel", "compute_energy", "economics", "libm", "replay", "world")


def validate_calls(source: str) -> list[int]:
    """The line of each ``<anything>.validate(...)`` call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate"]


def raise_lines(source: str) -> list[int]:
    """The line of each ``raise`` statement."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)]


def test_checker_finds_calls():
    source = ("def a(cfg):\n    cfg.validate()\n"
              "def b(env):\n    env.cfg.world.validate()\n    validate(env)\n")
    assert validate_calls(source) == [2, 4]


def test_no_validate_call_outside_config():
    calls = {path.name: validate_calls(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py")) if path.name != "config.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def test_checker_finds_raises():
    source = ("def a(d):\n    if d <= 0:\n        raise ValueError('d')\n"
              "def b():\n    try:\n        pass\n    except OSError:\n        raise\n"
              "# raise in a comment\ns = 'raise in a string'\n")
    assert raise_lines(source) == [3, 8]


def test_no_raise_in_formula_modules():
    raises = {name: raise_lines((SRC / f"{name}.py").read_text(encoding="utf-8"))
              for name in FORMULA_MODULES}
    assert {name: lines for name, lines in raises.items() if lines} == {}
