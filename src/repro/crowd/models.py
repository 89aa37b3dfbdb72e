"""Surrogate-model storage in the crowd repository (paper Sec. IV-B).

GPTune's history database stores not only function evaluations but also
*trained surrogate models*; ``QuerySurrogateModel`` can then hand a user
"a surrogate performance model based on the queried performance data
samples" without refitting — and Multitask(PS) (Sec. V-A1) is defined in
terms of exactly such pre-trained source models.

:class:`ModelStore` adds that capability on top of the document store:
portable (JSON, pickle-free) GP snapshots keyed by problem + task +
owner, with the same accessibility rules as performance records.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.gp import Surrogate
from ..core.problem import task_key
from ..core.sparse import surrogate_from_dict
from .records import Accessibility
from .repository import CrowdRepository

__all__ = ["ModelStore", "StoredModel"]

_MODELS = "surrogate_models"


class StoredModel:
    """A queried surrogate-model entry."""

    def __init__(self, doc: Mapping[str, Any]) -> None:
        self.problem_name: str = doc["problem_name"]
        self.task_parameters: dict[str, Any] = dict(doc["task_parameters"])
        self.owner: str = doc.get("owner", "")
        self.n_samples: int = int(doc.get("n_samples", 0))
        self.timestamp: float = float(doc.get("timestamp", 0.0))
        self._payload = dict(doc["model"])

    def load(self) -> Surrogate:
        """Reconstruct the trained surrogate (no refitting)."""
        return surrogate_from_dict(self._payload)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<StoredModel {self.problem_name} task={self.task_parameters} "
            f"n={self.n_samples} by {self.owner}>"
        )


class ModelStore:
    """Upload/query surrogate models through a :class:`CrowdRepository`.

    Composition rather than inheritance: a ``ModelStore`` wraps an
    existing repository and reuses its authentication, user registry,
    accessibility rules and persistence.
    """

    def __init__(self, repository: CrowdRepository) -> None:
        self.repository = repository
        repository.store.collection(_MODELS)

    # -- upload ------------------------------------------------------------
    def upload_model(
        self,
        api_key: str,
        problem_name: str,
        task: Mapping[str, Any],
        gp: Surrogate,
        *,
        accessibility: Accessibility | None = None,
    ) -> int:
        """Store a trained surrogate for (problem, task)."""
        user = self.repository.users.authenticate(api_key)
        if not problem_name:
            raise ValueError("problem_name must be non-empty")
        doc = {
            "problem_name": problem_name,
            "task_parameters": dict(task),
            "task_key": repr(task_key(task)),
            "owner": user.username,
            "n_samples": gp.n_train,
            "model": gp.to_dict(),
            "accessibility": (accessibility or Accessibility()).to_dict(),
            "timestamp": self.repository._now(),
        }
        return self.repository.store[_MODELS].insert(doc)

    # -- query ----------------------------------------------------------------
    def query_models(
        self,
        api_key: str,
        problem_name: str,
        *,
        task: Mapping[str, Any] | None = None,
        latest_only: bool = True,
    ) -> list[StoredModel]:
        """Visible stored models for a problem (optionally one task).

        ``latest_only`` keeps only the newest model per (task, owner) —
        users typically re-upload improved models as data accumulates.
        """
        user = self.repository.users.authenticate(api_key)
        flt: dict[str, Any] = {"problem_name": problem_name}
        if task is not None:
            flt["task_key"] = repr(task_key(task))
        docs = self.repository.store[_MODELS].find(flt, sort="timestamp")
        visible = []
        for doc in docs:
            acc = Accessibility.from_dict(doc.get("accessibility"))
            if acc.visible_to(user.username, doc.get("owner", ""), sorted(user.groups)):
                visible.append(doc)
        if latest_only:
            newest: dict[tuple, dict] = {}
            for doc in visible:
                key = (doc["task_key"], doc.get("owner", ""))
                newest[key] = doc  # sorted by timestamp: later wins
            visible = sorted(newest.values(), key=lambda d: d["timestamp"])
        return [StoredModel(d) for d in visible]

    def load_latest(
        self, api_key: str, problem_name: str, task: Mapping[str, Any]
    ) -> StoredModel | None:
        """The newest visible model for a task, across all owners.

        Duplicate uploads resolve newest-wins by timestamp (ties by
        insertion order, the collection's stable sort) — the counterpart
        of :meth:`query_best_model`'s most-samples-wins policy.
        """
        models = self.query_models(
            api_key, problem_name, task=task, latest_only=False
        )
        return models[-1] if models else None

    def query_best_model(
        self, api_key: str, problem_name: str, task: Mapping[str, Any]
    ) -> StoredModel | None:
        """The visible model with the most training samples for a task."""
        models = self.query_models(api_key, problem_name, task=task)
        if not models:
            return None
        return max(models, key=lambda m: (m.n_samples, m.timestamp))

    def delete_own(self, api_key: str, problem_name: str) -> int:
        user = self.repository.users.authenticate(api_key)
        return self.repository.store[_MODELS].delete(
            {"problem_name": problem_name, "owner": user.username}
        )

    def count(self) -> int:
        return len(self.repository.store[_MODELS])
