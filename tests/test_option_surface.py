"""Every option has a caller.

An option field that nothing outside its own module ever sets is a
constant with a configuration surface: it doubles what tests and
benchmarks would have to cover and carries code only its default
reaches.  This guard walks every ``*Options`` class under ``src/repro``
(dataclass fields and ``__init__`` parameters) and the ``__init__`` of
every class in :data:`OPTION_TAKERS`, and fails for a field no file
other than the defining one sets — in ``src/``, ``benchmarks/``,
``examples/`` or ``tests/``.  The fix is a caller (a test of the
behaviour the option selects) or a module constant.

A field counts as set only by a keyword passed to the class itself, to a
subclass, to ``replace`` (``dataclasses.replace``), or to a function
that forwards its ``**kwargs`` into one of those calls (one level; a
class whose ``__init__`` forwards counts as the function).  A keyword of
the same name on an unrelated call (``n_inducing=`` on a ``SparseGP``)
sets nothing.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src", "benchmarks", "examples", "tests")
#: classes whose constructor arguments are options without an ``Options``
#: name: every TLA strategy takes its model settings through the base's
OPTION_TAKERS = {"TLAStrategy"}
#: functions whose keywords reach an option class in a way the walk
#: cannot see: name -> (class, why)
FORWARDERS = {
    "get_strategy": (
        "TLAStrategy",
        "passes its **kwargs to the STRATEGY_REGISTRY class its key names, "
        "a TLAStrategy subclass picked at run time",
    ),
    "build_service": (
        "RouterOptions",
        "its replication / quorum / anti-entropy parameters are shorthand "
        "for the RouterOptions fields of the same names",
    ),
}
#: fields kept though no call sets them: "Class.field" -> why
UNSET_ALLOWED = {
    "RegistryOptions.seed": (
        "benchmarks/e2e/workloads.py reads RegistryOptions().seed as the "
        "fit seed a served prediction must match; a constant needs an "
        "edit there"
    ),
}


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


def _callee(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _forwarded(fn: ast.FunctionDef) -> set[str | None]:
    """Callees ``fn`` hands its own ``**kwargs`` to."""
    if fn.args.kwarg is None:
        return set()
    return {
        _callee(call)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and any(
            kw.arg is None
            and isinstance(kw.value, ast.Name)
            and kw.value.id == fn.args.kwarg.arg
            for kw in call.keywords
        )
    }


@lru_cache(maxsize=None)
def _index():
    """One pass over every searched file: class -> base names, forwarder
    -> callees, callee -> ``[(keyword, file)]``."""
    bases: dict[str, set[str]] = {}
    forwards: dict[str, set[str | None]] = {}
    calls: dict[str, list[tuple[str, Path]]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call) and _callee(node):
                    calls.setdefault(_callee(node), []).extend(
                        (kw.arg, path) for kw in node.keywords if kw.arg is not None
                    )
                elif isinstance(node, ast.FunctionDef) and node.name != "__init__":
                    forwards.setdefault(node.name, set()).update(_forwarded(node))
                elif isinstance(node, ast.ClassDef):
                    bases.setdefault(node.name, set()).update(
                        b.id if isinstance(b, ast.Name) else b.attr
                        for b in node.bases
                        if isinstance(b, (ast.Name, ast.Attribute))
                    )
                    init = [
                        stmt
                        for stmt in node.body
                        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                    ]
                    for stmt in init:
                        forwards.setdefault(node.name, set()).update(_forwarded(stmt))
    return bases, forwards, calls


def setters(option_class: str) -> set[str]:
    """Names whose call sets ``option_class``'s fields: the class, its
    subclasses, ``replace``, and one level of ``**kwargs`` forwarders."""
    bases, forwards, _ = _index()
    family = {option_class}
    grew = True
    while grew:
        grew = False
        for cls, parents in bases.items():
            if cls not in family and parents & family:
                family.add(cls)
                grew = True
    direct = family | {"replace"}
    names = direct | {fn for fn, callees in forwards.items() if callees & direct}
    return names | {fn for fn, (cls, _) in FORWARDERS.items() if cls == option_class}


def unset_options() -> list[str]:
    """``Class.field`` of every option no other file sets."""
    calls = _index()[2]
    declared = declared_options()
    passed: dict[tuple[str, str], set[Path]] = {}
    for cls in {c for _, c, _ in declared}:
        for callee in setters(cls):
            for keyword, path in calls.get(callee, []):
                passed.setdefault((cls, keyword), set()).add(path)
    return [
        f"{cls}.{field}"
        for path, cls, field in declared
        if not passed.get((cls, field), set()) - {path}
    ]


def test_the_walk_sees_the_option_classes():
    classes = {cls for _, cls, _ in declared_options()}
    assert {
        "TunerOptions",
        "SearchOptions",
        "RegistryOptions",
        "RouterOptions",
        "TLAStrategy",
    } <= classes


def test_the_walk_follows_subclasses_and_forwarders():
    strategy = setters("TLAStrategy")
    # a subclass, a subclass whose __init__ forwards, a function one
    # **kwargs level up (the default ensemble pool), the registry lookup
    assert {"Stacking", "EnsembleProposed", "_default_pool", "get_strategy"} <= strategy
    # a keyword of the same name on another class sets nothing
    assert "SparseGP" not in setters("TunerOptions")


def test_every_option_field_is_set_by_some_other_file():
    unset = [name for name in unset_options() if name not in UNSET_ALLOWED]
    assert not unset, f"options nothing sets (make them constants): {unset}"


def test_every_allowance_is_still_needed():
    unset = set(unset_options())
    stale = [name for name in UNSET_ALLOWED if name not in unset]
    stale += [fn for fn in FORWARDERS if fn not in _index()[2]]
    assert not stale, f"allowances nothing needs any more: {stale}"
