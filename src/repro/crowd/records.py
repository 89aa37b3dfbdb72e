"""Performance-data-sample schema (system S10, paper Sec. III).

Every sample in the shared database carries *task parameters*, *tuning
parameters* and the *evaluation result*, plus the reproducibility block
(machine/software configuration), ownership, and an accessibility level
(public / private / shared-with-groups) — the structure of the paper's
Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .columnar import thaw

__all__ = ["PerformanceRecord", "Accessibility"]

#: recognized accessibility levels
ACCESS_LEVELS = ("public", "private", "group")


class Accessibility:
    """Visibility policy of one record."""

    def __init__(self, level: str = "public", groups: list[str] | None = None) -> None:
        if level not in ACCESS_LEVELS:
            raise ValueError(f"accessibility level must be one of {ACCESS_LEVELS}")
        if level == "group" and not groups:
            raise ValueError("group accessibility needs at least one group name")
        self.level = level
        self.groups = list(groups or [])

    def visible_to(self, username: str, owner: str, user_groups: list[str]) -> bool:
        """Whether ``username`` (member of ``user_groups``) may read."""
        if username == owner or self.level == "public":
            return True
        if self.level == "private":
            return False
        return bool(set(self.groups) & set(user_groups))

    def to_dict(self) -> dict[str, Any]:
        return {"level": self.level, "groups": list(self.groups)}

    @staticmethod
    def from_dict(doc: Mapping[str, Any] | None) -> "Accessibility":
        if doc is None:
            return Accessibility()
        return Accessibility(doc.get("level", "public"), doc.get("groups"))


@dataclass
class PerformanceRecord:
    """One function evaluation as stored in the shared database."""

    problem_name: str
    task_parameters: dict[str, Any]
    tuning_parameters: dict[str, Any]
    output: float | None
    owner: str = ""
    machine_configuration: dict[str, Any] = field(default_factory=dict)
    software_configuration: dict[str, Any] = field(default_factory=dict)
    accessibility: Accessibility = field(default_factory=Accessibility)
    timestamp: float = 0.0
    uid: int = 0

    def __post_init__(self) -> None:
        if not self.problem_name:
            raise ValueError("record needs a problem name")

    @property
    def failed(self) -> bool:
        return self.output is None

    # -- serialization -----------------------------------------------------
    def to_doc(self) -> dict[str, Any]:
        """The database document (the paper's JSON sample format)."""
        return {
            "uid": self.uid,
            "problem_name": self.problem_name,
            "task_parameters": dict(self.task_parameters),
            "tuning_parameters": dict(self.tuning_parameters),
            "output": self.output,
            "owner": self.owner,
            "machine_configuration": dict(self.machine_configuration),
            "software_configuration": dict(self.software_configuration),
            "accessibility": self.accessibility.to_dict(),
            "timestamp": self.timestamp,
        }

    @staticmethod
    def from_doc(doc: Mapping[str, Any]) -> "PerformanceRecord":
        # thaw: documents may arrive as the store's frozen zero-copy
        # views — records hand out fully mutable nested blocks
        return PerformanceRecord(
            problem_name=doc["problem_name"],
            task_parameters=thaw(dict(doc.get("task_parameters", {}))),
            tuning_parameters=thaw(dict(doc.get("tuning_parameters", {}))),
            output=doc.get("output"),
            owner=doc.get("owner", ""),
            machine_configuration=thaw(dict(doc.get("machine_configuration", {}))),
            software_configuration=thaw(dict(doc.get("software_configuration", {}))),
            accessibility=Accessibility.from_dict(doc.get("accessibility")),
            timestamp=float(doc.get("timestamp", 0.0)),
            uid=int(doc.get("uid", 0)),
        )
