"""Frozen surrogate-model registry serving the crowd read path.

The registry removes the per-query GP refits from the crowd prediction
utilities: each ``(problem_name, task)`` surrogate is fitted once per
data version on the write side (debounced by
:meth:`ModelRegistry.notify`, on the thread that stored the record),
frozen, persisted through the owning shard's WAL, and served as batched
vectorized predictions from the resident surrogate (the object the
build fitted, or its deserialized snapshot).

Entry points:

* :class:`ModelRegistry` / :class:`RegistryOptions` — the subsystem,
  attached per shard (``CrowdShard(..., registry=RegistryOptions())``
  or ``build_service(..., registry=...)``).
* :class:`RegistryEntry` — the stored document schema.
* :func:`space_fingerprint` — the registered-space hash clients use to
  confirm a served model answers *their* query semantics.
"""

from .entry import (
    REGISTRY_MODELS,
    REGISTRY_PROBLEMS,
    RegistryEntry,
    record_counts,
    space_fingerprint,
)
from .registry import ModelRegistry, RegistryOptions, upsert_newest

__all__ = [
    "REGISTRY_MODELS",
    "REGISTRY_PROBLEMS",
    "ModelRegistry",
    "RegistryEntry",
    "RegistryOptions",
    "record_counts",
    "space_fingerprint",
    "upsert_newest",
]
