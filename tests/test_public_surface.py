"""The public surface is what the system uses.

A name in a module's ``__all__`` is a promise to callers.  When only
tests call it, the promise costs a test, a doc line and a reader's
attention, and keeps alive code no path of the program reaches.  This
guard walks every ``__all__`` under ``src/repro`` and fails for a name
nothing in ``src/``, ``benchmarks/`` or ``examples/`` uses outside the
module that defines it, unless :data:`ALLOWED` says why it is public
anyway.  The fix is a caller, dropping the name from ``__all__`` (and
from its package's re-exports), or deleting it.

A use is a name or an attribute access; an import or an ``__all__``
string is not, so a package ``__init__`` that only re-exports a name
does not keep it public.  A package that re-exports a name must also
find it in the ``__all__`` of the module it imports it from.

A module stays only if DESIGN.md's system inventory maps a system to it
or something outside it uses one of its names.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
USERS = ("src", "benchmarks", "examples")
#: exported names no program path calls, kept public on purpose:
#: "module.name" -> why
ALLOWED = {
    "repro.core.kernels.Matern52": "reached by name through kernel_from_name",
    "repro.core.kernels.Matern32": "reached by name through kernel_from_name",
    "repro.core.acquisition.LowerConfidenceBound": (
        "S4's LCB, a value of TunerOptions.acquisition"
    ),
    "repro.core.samplers.RandomSampler": "reached by name through get_sampler",
    "repro.core.samplers.LatinHypercubeSampler": "reached by name through get_sampler",
    "repro.core.samplers.SobolSampler": "reached by name through get_sampler",
    "repro.core.space.Parameter": (
        "base class of the parameter kinds a Space holds"
    ),
    "repro.core.mixed.MixedKernel": "return type of mixed_kernel_for_space",
    "repro.crowd.columnar.QuerySyntaxError": (
        "raised by every malformed filter; callers catch it"
    ),
    "repro.crowd.query.SqlSyntaxError": "raised by SqlQuery; callers catch it",
    "repro.crowd.environment.parse_ck_meta": "S13's CK-style environment parser",
    "repro.crowd.environment.EnvironmentParseError": (
        "raised by S13's environment parsers; callers catch it"
    ),
    "repro.crowd.views.LeaderboardRow": "return type of leaderboard",
    "repro.hpc.procgrid.Grid2D": "return type of squarest_grid and grid_for_rows",
    "repro.hpc.procgrid.block_cyclic_rows": "S22's 2D block-cyclic distribution",
    "repro.hpc.scheduler.AllocationError": (
        "raised by SlurmSim.allocate; callers catch it"
    ),
    "repro.sensitivity.sobol.sobol_indices": (
        "S18's estimator on precomputed model outputs"
    ),
    "repro.service.CrowdService": "return type of build_service",
}


def _module(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _resolve(path: Path, node: ast.ImportFrom) -> str | None:
    """Dotted module an ``ImportFrom`` in ``path`` reads, if in repro."""
    if node.level == 0:
        return node.module if (node.module or "").startswith("repro") else None
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


@lru_cache(maxsize=None)
def surface() -> dict[str, tuple[list[str], dict[str, str]]]:
    """module -> (its ``__all__``, name -> the repro module it imports it
    from)."""
    out = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        names: list[str] = []
        imported: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and _resolve(path, node):
                for alias in node.names:
                    imported[alias.asname or alias.name] = _resolve(path, node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                    names = [elt.value for elt in node.value.elts]
        out[_module(path)] = (names, imported)
    return out


@lru_cache(maxsize=None)
def uses() -> dict[str, set[str]]:
    """name -> modules (or file paths outside ``src``) that use it."""
    found: dict[str, set[str]] = {}
    for top in USERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            where = _module(path) if path.is_relative_to(SRC) else str(path)
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    found.setdefault(node.id, set()).add(where)
                elif isinstance(node, ast.Attribute):
                    found.setdefault(node.attr, set()).add(where)
    return found


def defined_exports() -> list[tuple[str, str]]:
    """``(module, name)`` for every ``__all__`` name the module defines."""
    return [
        (module, name)
        for module, (names, imported) in surface().items()
        for name in names
        if name not in imported
    ]


def unused_exports() -> list[str]:
    return [
        f"{module}.{name}"
        for module, name in defined_exports()
        if not uses().get(name, set()) - {module}
    ]


def test_the_walk_sees_the_exports():
    exported = {f"{m}.{n}" for m, n in defined_exports()}
    assert {"repro.core.tuner.Tuner", "repro.service.build_service"} <= exported
    # a re-export is checked where the name is defined, not in __init__
    assert "repro.core.Tuner" not in exported


def test_every_export_has_a_caller_outside_its_module():
    unused = [name for name in unused_exports() if name not in ALLOWED]
    assert not unused, (
        "exported names only their own module or tests use (drop them from "
        f"__all__, delete them, or allow them with a reason): {unused}"
    )


def test_every_allowance_is_still_needed():
    unused = set(unused_exports())
    stale = [name for name in ALLOWED if name not in unused]
    assert not stale, f"allowed names that no longer need it: {stale}"


def test_a_reexport_is_exported_where_it_is_defined():
    table = surface()
    hidden = [
        f"{module}.{name} (from {imported[name]})"
        for module, (names, imported) in table.items()
        for name in names
        if name in imported
        and f"{imported[name]}.{name}" not in table  # a submodule, not a name
        and name not in table[imported[name]][0]
    ]
    assert not hidden, f"re-exports of names their module does not export: {hidden}"


def test_every_module_is_mapped_or_reached():
    # the system inventory: one table row per system, "| S<n> | ..."
    systems = "\n".join(
        line for line in (ROOT / "DESIGN.md").read_text().splitlines()
        if line.startswith("| S")
    )
    mapped = set(re.findall(r"`(repro(?:\.\w+)+)(?:\.\*)?`", systems))
    table = surface()
    orphans = [
        module
        for module, (names, imported) in table.items()
        if not any(module == m or module.startswith(m + ".") for m in mapped)
        and not any(uses().get(name, set()) - {module} for name in names)
    ]
    assert not orphans, f"modules DESIGN.md does not map and nothing reaches: {orphans}"
