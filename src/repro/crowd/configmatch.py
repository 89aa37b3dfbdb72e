"""Machine/software tag-name matching (system S14, paper Sec. III).

"Different users might use different names to describe the same machine
and software configuration.  The shared database therefore internally
parses the user provided information to match the tag names with the
well-defined machine/software information existing in the database."

:class:`TagMatcher` implements that normalization: a canonical-entry
database with alias lists, plus a fuzzy fallback (normalized-string
similarity) for near-miss spellings.  Ships with the machines and
software packages the paper's experiments involve; deployments extend it
through :meth:`add_machine` / :meth:`add_software`.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field

__all__ = ["default_matcher"]

#: bound on the names one table's memo holds
_MEMO_MAX = 1024

_Table = tuple[dict[str, str], dict[str, str | None]]


def _normalize(name: str) -> str:
    """Lowercase and strip separators: ``Cori-Haswell`` -> ``corihaswell``."""
    return re.sub(r"[\s_\-./]+", "", name.strip().lower())


@dataclass
class CanonicalEntry:
    """A well-known machine or software package."""

    canonical: str
    aliases: set[str] = field(default_factory=set)
    info: dict = field(default_factory=dict)

    def all_names(self) -> set[str]:
        return {_normalize(self.canonical)} | {_normalize(a) for a in self.aliases}


def _name_table(entries: dict[str, CanonicalEntry]) -> dict[str, str]:
    """Normalized name -> canonical; the first-registered entry keeps a name."""
    table: dict[str, str] = {}
    for entry in entries.values():
        for name in entry.all_names():
            table.setdefault(name, entry.canonical)
    return table


class TagMatcher:
    """Alias + fuzzy matching of free-form names to canonical tags."""

    def __init__(self, *, fuzzy_cutoff: float = 0.82) -> None:
        self._machines: dict[str, CanonicalEntry] = {}
        self._software: dict[str, CanonicalEntry] = {}
        # (normalized name -> canonical, memo) per kind, replaced as one
        # pair on registration: the table spares a match (one per uploaded
        # tag) re-normalizing the aliases; the memo keeps the answers given
        # — a match is a pure function of (name, table), and uploads repeat
        # a handful of names — and is emptied when full
        self._machine_table: _Table = ({}, {})
        self._software_table: _Table = ({}, {})
        self.fuzzy_cutoff = fuzzy_cutoff

    # -- registration ----------------------------------------------------
    def add_machine(
        self, canonical: str, aliases: list[str] | None = None, **info
    ) -> None:
        self._machines[canonical] = CanonicalEntry(
            canonical, set(aliases or []), dict(info)
        )
        self._machine_table = (_name_table(self._machines), {})

    def add_software(
        self, canonical: str, aliases: list[str] | None = None, **info
    ) -> None:
        self._software[canonical] = CanonicalEntry(
            canonical, set(aliases or []), dict(info)
        )
        self._software_table = (_name_table(self._software), {})

    def machines(self) -> list[str]:
        return sorted(self._machines)

    def software(self) -> list[str]:
        return sorted(self._software)

    # -- matching -----------------------------------------------------------
    def match_machine(self, name: str) -> str | None:
        return self._match(name, *self._machine_table)

    def match_software(self, name: str) -> str | None:
        return self._match(name, *self._software_table)

    def machine_info(self, canonical: str) -> dict:
        return dict(self._machines[canonical].info)

    def _match(
        self, name: str, names: dict[str, str], memo: dict[str, str | None]
    ) -> str | None:
        if not name:
            return None
        try:
            return memo[name]
        except (KeyError, TypeError):  # new, or unhashable: refused below
            pass
        norm = _normalize(name)
        hit = names.get(norm)  # exact / alias hit
        if hit is None:
            # fuzzy fallback over all known names
            close = difflib.get_close_matches(norm, names, n=1, cutoff=self.fuzzy_cutoff)
            hit = names[close[0]] if close else None
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[name] = hit
        return hit

    def normalize_machine_configuration(self, config: dict) -> dict:
        """Rewrite a machine-configuration block onto canonical tag names.

        Unrecognized names pass through unchanged (the database keeps
        them verbatim rather than guessing wrong — mismatched tags would
        silently pollute cross-user queries).
        """
        out = {}
        for name, payload in config.items():
            canonical = self.match_machine(name)
            out[canonical if canonical else name] = payload
        return out


def default_matcher() -> TagMatcher:
    """The matcher preloaded with this paper's machines and software."""
    m = TagMatcher()
    m.add_machine(
        "Cori",
        aliases=["cori-haswell", "cori_knl", "cori-knl", "NERSC Cori", "corihsw"],
        site="NERSC",
        partitions={"haswell": {"cores": 32}, "knl": {"cores": 68}},
    )
    m.add_machine("Perlmutter", aliases=["perlmutter-cpu", "NERSC Perlmutter"])
    m.add_machine("Summit", aliases=["ornl-summit"])
    m.add_software("scalapack", aliases=["ScaLAPACK", "sca-lapack", "libscalapack"])
    m.add_software(
        "superlu-dist", aliases=["SuperLU_DIST", "superlu_dist", "superludist"]
    )
    m.add_software("hypre", aliases=["Hypre", "libhypre", "hypre-ij"])
    m.add_software("nimrod", aliases=["NIMROD", "nimrod-mhd"])
    m.add_software("gcc", aliases=["gnu", "gnu-gcc", "g++"])
    m.add_software("cray-mpich", aliases=["craympich", "cray_mpich", "mpich-cray"])
    return m
