"""Documentation references resolve.

A docstring role such as ``:class:`~repro.fabric.tuner.FabricTuner``` or
a backticked ``repro.core.perf`` in the Markdown docs names a place in
the code.  When that place is deleted or moved the reference dangles
silently: nothing imports it.  This guard resolves every such name —
the targets of the ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` /
``:attr:`` / ``:data:`` / ``:exc:`` roles that are qualified with
``repro.`` in any ``src/repro`` docstring, and every backticked dotted
``repro.…`` name in README.md, DESIGN.md, EXPERIMENTS.md and
``docs/*.md`` — by importing its longest module prefix and taking the
rest as attributes.  Unqualified roles (``:meth:`fit``` in a class's
module docstring) are left out: their scope is the reader's guess.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md")
ROLE = re.compile(r":(?:mod|class|func|meth|attr|data|exc):`([^`]+)`")
MARKDOWN_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\(\))?`")


def _target(role_text: str) -> str:
    """The dotted name of a role's text: ``Title <target>`` or
    ``~target``."""
    if role_text.endswith(">") and "<" in role_text:
        role_text = role_text[role_text.rindex("<") + 1 : -1]
    return role_text.lstrip("~")


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for name in parts[i:]:
                obj = getattr(obj, name)
        except AttributeError:
            return False
        return True
    return False


def docstring_references() -> list[tuple[str, str]]:
    """``(file, target)`` for every ``repro.``-qualified role."""
    refs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for match in ROLE.finditer(ast.get_docstring(node, clean=False) or ""):
                target = _target(match.group(1))
                if target.startswith("repro."):
                    refs.append((str(path.relative_to(ROOT)), target))
    return refs


def markdown_references() -> list[tuple[str, str]]:
    """``(file, name)`` for every backticked dotted ``repro.…`` name."""
    refs = []
    for pattern in DOCS:
        for path in sorted(ROOT.glob(pattern)):
            for name in MARKDOWN_NAME.findall(path.read_text()):
                refs.append((str(path.relative_to(ROOT)), name))
    return refs


def test_the_walks_see_the_references():
    assert len(docstring_references()) > 100
    assert len(markdown_references()) > 50


def test_every_docstring_reference_resolves():
    dangling = [ref for ref in docstring_references() if not resolves(ref[1])]
    assert not dangling, "docstring roles naming nothing:\n" + "\n".join(
        f"  {path}: {target}" for path, target in dangling
    )


def test_every_markdown_reference_resolves():
    dangling = [ref for ref in markdown_references() if not resolves(ref[1])]
    assert not dangling, "backticked names naming nothing:\n" + "\n".join(
        f"  {path}: {name}" for path, name in dangling
    )
