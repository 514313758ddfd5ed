"""``src/uavmec`` checks a config in one place: where it is built.

Config sections are frozen and check themselves in ``__post_init__``, so a
config that exists is valid. A consumer calling ``.validate()`` again would
only hide a section that failed to check itself. This lint parses every
module under ``src/uavmec`` and allows ``.validate(...)`` calls only in
``config.py``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uavmec"


def validate_calls(source: str) -> list[int]:
    """The line of each ``<anything>.validate(...)`` call."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate"]


def test_checker_finds_calls():
    source = ("def a(cfg):\n    cfg.validate()\n"
              "def b(env):\n    env.cfg.world.validate()\n    validate(env)\n")
    assert validate_calls(source) == [2, 4]


def test_no_validate_call_outside_config():
    calls = {path.name: validate_calls(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.rglob("*.py")) if path.name != "config.py"}
    assert {name: lines for name, lines in calls.items() if lines} == {}
