"""Every option has a caller.

An option field that nothing outside its own module ever sets is a
constant with a configuration surface: it doubles what tests and
benchmarks would have to cover and carries code only its default
reaches.  This guard walks every ``*Options`` class under ``src/repro``
(dataclass fields and ``__init__`` parameters) and the ``__init__`` of
every class in :data:`OPTION_TAKERS`, and fails for a field no file
other than the defining one passes by keyword — in ``src/``,
``benchmarks/``, ``examples/`` or ``tests/``.  The fix is a caller (a test of the
behaviour the option selects) or a module constant.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples", "tests")
#: classes whose constructor arguments are options without an ``Options``
#: name: every TLA strategy takes its model settings through the base's
OPTION_TAKERS = {"TLAStrategy"}


def declared_options() -> list[tuple[Path, str, str]]:
    """``(defining file, class name, field)`` of every option field."""
    found = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            options = node.name.endswith("Options")
            if not (options or node.name in OPTION_TAKERS):
                continue
            for stmt in node.body:
                if options and isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    found.append((path, node.name, stmt.target.id))
                elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    for arg in stmt.args.args[1:] + stmt.args.kwonlyargs:
                        found.append((path, node.name, arg.arg))
    return found


def keywords_passed() -> dict[str, set[Path]]:
    """keyword name -> the files holding a call that passes it."""
    passed: dict[str, set[Path]] = {}
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    for kw in node.keywords:
                        if kw.arg is not None:
                            passed.setdefault(kw.arg, set()).add(path)
    return passed


def test_the_walk_sees_the_option_classes():
    classes = {cls for _, cls, _ in declared_options()}
    assert {
        "TunerOptions",
        "SearchOptions",
        "RegistryOptions",
        "RouterOptions",
        "TLAStrategy",
    } <= classes


def test_every_option_field_is_set_by_some_other_file():
    passed = keywords_passed()
    unset = [
        f"{cls}.{field}"
        for path, cls, field in declared_options()
        if not passed.get(field, set()) - {path}
    ]
    assert not unset, f"options nothing sets (make them constants): {unset}"
