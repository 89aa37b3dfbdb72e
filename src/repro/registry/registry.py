"""The frozen surrogate-model registry (fit once, serve many).

:class:`ModelRegistry` turns the crowd's prediction utilities from a
compute workload into a read workload.  The paper's Sec. IV-B calls —
``QuerySurrogateModel`` / ``QueryPredictOutput`` /
``QuerySensitivityAnalysis`` — each fit a fresh GP per invocation;
the registry fits each surrogate **once** per
``(problem_name, task, data_version)`` and answers every subsequent
prediction from the frozen factorization:

* **write side** — :meth:`ModelRegistry.notify` is the one way in: each
  stored record that :func:`~repro.registry.entry.record_counts` advances
  its key's data version, and once ``min_new_samples`` of them arrived
  since the version a build was last attempted at, the key is rebuilt
  inline on the notifying thread.  Both numbers come back from the store
  after a restart (the version is a record count, ``attempted`` the
  stored entry's ``data_version``).  Built entries are plain store
  documents in the ``registry_models`` collection, so the owning shard's
  journal persists, recovers and anti-entropy heals
  them exactly like performance records.
* **read side** — ``predict`` / ``model_meta`` / ``sensitivity``
  deserialize the entry once into a resident surrogate (bounded LRU,
  :meth:`~ModelRegistry.resident_count`) and serve batched vectorized
  predictions through its ``predict``.  Zero GP fits after the first
  build.  A resident model is never refit or updated — a rebuild makes a
  new object and swaps the resident tuple under the lock — so a reader
  that already took one keeps a consistent model without any snapshot.

Entries are *content determined* (see :mod:`repro.registry.entry`):
the fit consumes the timestamp-sorted public successful records under
the registered problem space with a fixed seed, so replicas holding the
same record set build byte-identical entries and the digest-based
anti-entropy protocol treats them as already converged.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from ..core import perf
from ..core.gp import GPFitError
from ..core.sparse import make_surrogate, resolve_surrogate_kind, surrogate_from_dict
from ..core.problem import task_key
from ..core.space import Space
from ..crowd.columnar import KeyMemo
from ..crowd.database import Collection
from ..crowd.query import build_filter
from ..crowd.repository import CrowdRepository
from .entry import (
    REGISTRY_MODELS,
    REGISTRY_PROBLEMS,
    RegistryEntry,
    record_counts,
    space_fingerprint,
)

__all__ = ["ModelRegistry", "RegistryOptions", "upsert_newest"]

_RECORDS = "performance_records"
#: the kernel of every build, recorded in its entry
_KERNEL = "rbf"
#: what a build can raise on records that are already stored: a covariance
#: that cannot be factorized, or a malformed stored block it had to read
_STORED_DATA_ERRORS = (GPFitError, ValueError, KeyError, TypeError, AttributeError)


def upsert_newest(
    coll: Collection,
    match: Mapping[str, Any],
    version: tuple[str, ...],
    doc: Mapping[str, Any],
) -> bool:
    """Newest-wins upsert of one keyed document (registration,
    replication, healing): ``doc`` replaces the document matching
    ``match`` unless the held one's ``version`` fields compare at least
    as new; returns whether the collection changed."""

    def rank(d: Mapping[str, Any]) -> tuple[float, ...]:
        return tuple(float(d.get(field, 0.0)) for field in version)

    existing = coll.find_one(match, frozen=True)
    if existing is not None and rank(existing) >= rank(doc):
        return False
    coll.delete(match)
    coll.insert({k: v for k, v in doc.items() if k != "_id"})
    return True


@dataclass(frozen=True)
class RegistryOptions:
    """Registry policy knobs.

    The defaults favour freshness and determinism: rebuild after every
    eligible upload (``min_new_samples=1``), synchronously, with a fixed
    fit seed so replicas converge on identical entries.  What a build
    fits is not a knob: the ``"auto"`` policy of :mod:`repro.core.sparse`
    picks the dense GP up to ``N_DENSE_MAX`` eligible records (entries
    byte-identical to the historical format) and the O(nm^2) sparse
    inducing-point GP past it — the same kind a client fitting the same
    records locally gets.
    """

    seed: int = 0
    min_samples: int = 2
    min_new_samples: int = 1
    max_resident: int = 64

    def __post_init__(self) -> None:
        # here, not at the first build: a build runs on the upload path,
        # after the record that triggered it has been stored
        if self.min_new_samples < 1:
            raise ValueError("min_new_samples must be >= 1")


class ModelRegistry:
    """Frozen-model registry bound to one shard's repository."""

    def __init__(
        self,
        repository: CrowdRepository,
        options: RegistryOptions | None = None,
    ) -> None:
        self.repository = repository
        self.options = options if options is not None else RegistryOptions()
        repository.store.collection(REGISTRY_MODELS)
        repository.store.collection(REGISTRY_PROBLEMS)
        # the whole write-side state, per (problem, task_key): the data
        # version (how many stored records ``record_counts``) and the
        # version a build was last attempted at.  Both are read back from
        # the store, so a restart recovers the debounce with the records
        self._keys = KeyMemo(lambda name, task: (name, repr(task_key(dict(task)))))
        self._version: dict[tuple[str, str], int] = {}
        for doc in repository.store[_RECORDS].find({}, frozen=True):
            if record_counts(doc):
                key = self._keys(doc.get("problem_name", ""), doc.get("task_parameters", {}))
                self._version[key] = self._version.get(key, 0) + 1
        self._attempted: dict[tuple[str, str], int] = {
            (doc["problem_name"], doc["task_key"]): int(doc.get("data_version", 0))
            for doc in repository.store[REGISTRY_MODELS].find({}, frozen=True)
        }
        #: ``(problem, task_key, repr(exc))`` of the last failed build
        self.last_build_error: tuple[str, str, str] | None = None
        # (problem, task_key) -> (predictor, entry it was made from)
        self._resident: OrderedDict[tuple[str, str], tuple[Any, RegistryEntry]] = (
            OrderedDict()
        )
        # problem -> (doc timestamp, Space, fingerprint, problem_space dict)
        self._space_cache: dict[str, tuple[float, Space, str, dict[str, Any]]] = {}
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()

    def data_version(self, problem_name: str, tk: str) -> int:
        """How many stored records of one key feed its fit."""
        with self._lock:
            return self._version.get((problem_name, tk), 0)

    # -- problem registration ------------------------------------------------
    def register_problem(
        self,
        problem_name: str,
        problem_space: Mapping[str, Any],
        *,
        uid: str = "",
        timestamp: float | None = None,
    ) -> bool:
        """Install (or refresh, newest-wins) one problem's space document.

        The registered ``problem_space`` defines both the eligible-record
        filter the build applies and the :class:`Space` used to vectorize
        configurations — it must match the client's meta description
        (clients verify via :func:`space_fingerprint`).  Raises
        ``ValueError`` for a space without a usable ``parameter_space``.
        """
        if not problem_name:
            raise ValueError("register_problem needs a problem_name")
        entries = (problem_space or {}).get("parameter_space") or []
        if not entries:
            raise ValueError("problem_space has no parameter_space block")
        Space.from_list(entries)  # raises on malformed entries
        if timestamp is None:
            timestamp = self.repository._now()
        doc = {
            "problem_name": problem_name,
            "problem_space": dict(problem_space),
            "uid": uid,
            "timestamp": float(timestamp),
        }
        return self.apply_problem(doc)

    def apply_problem(self, doc: Mapping[str, Any]) -> bool:
        """Newest-wins upsert of a problem document (registration or
        replication/healing); returns whether the store changed."""
        name = doc["problem_name"]
        coll = self.repository.store[REGISTRY_PROBLEMS]
        if not upsert_newest(coll, {"problem_name": name}, ("timestamp",), doc):
            return False
        with self._lock:
            self._space_cache.pop(name, None)
        return True

    def problem_doc(self, problem_name: str) -> dict[str, Any] | None:
        return self.repository.store[REGISTRY_PROBLEMS].find_one(
            {"problem_name": problem_name}, frozen=True
        )

    def _space_for(
        self, problem_name: str
    ) -> tuple[Space, str, dict[str, Any]] | None:
        """(Space, fingerprint, problem_space) for a registered problem."""
        doc = self.problem_doc(problem_name)
        if doc is None:
            return None
        ts = float(doc.get("timestamp", 0.0))
        with self._lock:
            cached = self._space_cache.get(problem_name)
            if cached is not None and cached[0] == ts:
                return cached[1], cached[2], cached[3]
        ps = dict(doc.get("problem_space", {}))
        space = Space.from_list(ps.get("parameter_space") or [])
        fp = space_fingerprint(ps)
        with self._lock:
            self._space_cache[problem_name] = (ts, space, fp, ps)
        return space, fp, ps

    def problem_space(self, problem_name: str) -> Space | None:
        resolved = self._space_for(problem_name)
        return resolved[0] if resolved is not None else None

    # -- write side ----------------------------------------------------------
    def notify(self, docs: Iterable[Mapping[str, Any]]) -> None:
        """Record documents were stored on this shard: an upload hands
        the stored frozen document, replication / healing below the
        upload path the documents it applied; none is modified.

        A key is due once ``min_new_samples`` counted records arrived
        since its last build attempt; the attempt spends them whatever it
        produces (nothing for an unregistered problem or too few samples;
        reads still build on first demand) and runs here, on the
        notifying thread.  The records are already stored, so a build
        that fails on them is counted and kept as
        :attr:`last_build_error`, not raised: the previous entry keeps
        being served, stale.
        """
        for doc in docs:
            if not record_counts(doc):
                continue
            task = doc.get("task_parameters", {})
            key = self._keys(doc.get("problem_name", ""), task)
            with self._lock:
                version = self._version[key] = self._version.get(key, 0) + 1
                due = (
                    version - self._attempted.get(key, 0)
                    >= self.options.min_new_samples
                )
                if due:
                    self._attempted[key] = version
            if not due:
                continue
            try:
                self.build(key[0], dict(task))
            except _STORED_DATA_ERRORS as exc:
                perf.incr("registry_build_errors")
                self.last_build_error = (*key, repr(exc))

    # -- building ------------------------------------------------------------
    def _eligible_docs(
        self,
        problem_name: str,
        problem_space: Mapping[str, Any],
        task_parameters: Mapping[str, Any],
    ) -> list[dict[str, Any]]:
        """The build's record set, selected exactly like the client's
        fit-locally path: problem-space filter, timestamp sort, then task
        grouping by :func:`task_key` — restricted to public records.

        One fused mask — filter (which already requires an output) AND
        public AND exact task-key match — then a stable timestamp sort,
        zero copies.  Each stored block is read only off records the
        predicates before it kept, so a malformed block fails exactly
        the builds that reach it.
        """
        flt = build_filter(problem_name, problem_space, None, require_success=True)
        target = repr(task_key(task_parameters))
        with self.repository.store[_RECORDS].columnar_snapshot() as view:
            mask = view.filter_mask(flt)
            mask &= view.path_value_mask(
                "accessibility",
                lambda v: (v or {}).get("level", "public") == "public",
                within=mask,
            )
            mask &= view.path_value_mask(
                "task_parameters",
                lambda v: repr(task_key(v if v is not None else {})) == target,
                within=mask,
            )
            docs = view.select(mask, sort="timestamp", frozen=True)
        perf.incr("store_zero_copy_reads")
        return docs

    def build(
        self, problem_name: str, task_parameters: Mapping[str, Any]
    ) -> RegistryEntry | None:
        """Fit + freeze + persist one ``(problem, task)`` entry.

        Returns ``None`` (without touching the store) when the problem is
        unregistered or has too few eligible samples.  Deterministic:
        fixed kernel/seed over timestamp-sorted records, so the entry's
        bytes are a function of the record set alone.
        """
        resolved = self._space_for(problem_name)
        if resolved is None:
            return None
        space, fp, ps = resolved
        tk = repr(task_key(task_parameters))
        with self._build_lock:
            docs = self._eligible_docs(problem_name, ps, task_parameters)
            if len(docs) < max(2, self.options.min_samples):
                return None
            X = space.to_unit_array([d["tuning_parameters"] for d in docs])
            y = np.array([d["output"] for d in docs], dtype=float)
            gp = make_surrogate(
                resolve_surrogate_kind("auto", len(docs)),
                _KERNEL,
                dim=space.dim,
                seed=self.options.seed,
            )
            with perf.timer("registry_build"):
                gp.fit(X, y)
            entry = RegistryEntry(
                problem_name=problem_name,
                task_parameters=dict(task_parameters),
                task_key=tk,
                data_version=len(docs),
                n_samples=len(docs),
                kernel=_KERNEL,
                seed=self.options.seed,
                model=gp.to_dict(),
                timestamp=float(docs[-1].get("timestamp", 0.0)),
                space_fingerprint=fp,
            )
            coll = self.repository.store[REGISTRY_MODELS]
            coll.delete({"problem_name": problem_name, "task_key": tk})
            coll.insert(entry.to_doc())
            self._install_resident(entry, gp)
            with self._lock:  # a first-demand build is an attempt too
                self._attempted[problem_name, tk] = self._version.get(
                    (problem_name, tk), 0
                )
            perf.incr("registry_builds")
        return entry

    def apply_entry(self, doc: Mapping[str, Any]) -> bool:
        """Upsert a replicated/healed entry document, newest-wins by
        ``(data_version, timestamp)``; returns whether the store changed."""
        name, tk = doc["problem_name"], doc["task_key"]
        match = {"problem_name": name, "task_key": tk}
        coll = self.repository.store[REGISTRY_MODELS]
        if not upsert_newest(coll, match, ("data_version", "timestamp"), doc):
            return False
        with self._lock:
            self._resident.pop((name, tk), None)
        return True

    # -- serving -------------------------------------------------------------
    def entry_for(
        self, problem_name: str, task_parameters: Mapping[str, Any]
    ) -> RegistryEntry | None:
        doc = self.repository.store[REGISTRY_MODELS].find_one(
            {
                "problem_name": problem_name,
                "task_key": repr(task_key(task_parameters)),
            },
            frozen=True,
        )
        return RegistryEntry.from_doc(doc) if doc is not None else None

    def _install_resident(self, entry: RegistryEntry, predictor: Any) -> Any:
        key = (entry.problem_name, entry.task_key)
        with self._lock:
            self._resident[key] = (predictor, entry)
            self._resident.move_to_end(key)
            while len(self._resident) > max(1, self.options.max_resident):
                self._resident.popitem(last=False)
        return predictor

    def _predictor_for(self, entry: RegistryEntry) -> Any:
        """The resident surrogate of one entry (LRU, doc-validated:
        a healed/rebuilt entry evicts the stale resident automatically)."""
        key = (entry.problem_name, entry.task_key)
        with self._lock:
            cached = self._resident.get(key)
            if cached is not None and (
                cached[1].data_version,
                cached[1].timestamp,
            ) == (entry.data_version, entry.timestamp):
                self._resident.move_to_end(key)
                return cached[0]
        return self._install_resident(entry, surrogate_from_dict(entry.model))

    def _serve(
        self, problem_name: str, task_parameters: Mapping[str, Any]
    ) -> tuple[RegistryEntry, Any, bool]:
        """(entry, predictor, stale) for a read; builds on first demand.

        Raises ``LookupError`` when no entry exists and none can be built
        (unregistered problem / not enough samples yet).
        """
        entry = self.entry_for(problem_name, task_parameters)
        if entry is None:
            entry = self.build(problem_name, task_parameters)
            if entry is None:
                raise LookupError(
                    f"no registry model for problem {problem_name!r}, "
                    f"task {dict(task_parameters)!r}"
                )
        else:
            perf.incr("registry_hits")
        predictor = self._predictor_for(entry)
        stale = entry.data_version < self.data_version(problem_name, entry.task_key)
        if stale:
            perf.incr("registry_stale_served")
        return entry, predictor, stale

    def _response_base(self, entry: RegistryEntry, stale: bool) -> dict[str, Any]:
        return {
            "data_version": int(entry.data_version),
            "n_samples": int(entry.n_samples),
            "stale": bool(stale),
            "space_fingerprint": entry.space_fingerprint,
        }

    def predict(
        self,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        configurations: list[Mapping[str, Any]],
    ) -> dict[str, Any]:
        """Batched posterior mean/std at the given configurations."""
        entry, predictor, stale = self._serve(problem_name, task_parameters)
        space = self.problem_space(problem_name)
        if space is None:  # entry healed in, problem doc not (yet)
            raise LookupError(f"problem {problem_name!r} is not registered")
        X = space.to_unit_array(configurations)
        mean, std = predictor.predict(X)
        perf.incr("registry_predict_batches")
        out = self._response_base(entry, stale)
        out["mean"] = [float(v) for v in np.asarray(mean).ravel()]
        out["std"] = [float(v) for v in np.asarray(std).ravel()]
        return out

    def model_meta(
        self,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        *,
        include_model: bool = False,
    ) -> dict[str, Any]:
        """Entry metadata; with ``include_model`` the portable snapshot
        too, so a client can reconstruct the exact served GP locally."""
        entry, _, stale = self._serve(problem_name, task_parameters)
        out = self._response_base(entry, stale)
        out.update(entry.meta())
        if include_model:
            out["model"] = dict(entry.model)
        return out

    def sensitivity(
        self,
        problem_name: str,
        task_parameters: Mapping[str, Any],
        *,
        n_base: int = 1024,
        n_bootstrap: int = 100,
        seed: int | None = None,
        include_model: bool = False,
    ) -> dict[str, Any]:
        """Sobol' indices of the frozen surrogate's posterior mean.

        Reuses the registry model instead of refitting a fresh GP the
        way :class:`~repro.sensitivity.analyzer.SensitivityAnalyzer`
        does — the analysis itself (Saltelli design + bootstrap) runs
        server-side on the frozen predictor.
        """
        from ..sensitivity.sobol import sobol_analyze_function

        entry, predictor, stale = self._serve(problem_name, task_parameters)
        space = self.problem_space(problem_name)
        if space is None:
            raise LookupError(f"problem {problem_name!r} is not registered")
        indices = sobol_analyze_function(
            predictor.predict_mean,
            space.dim,
            n_base=n_base,
            names=space.names,
            n_bootstrap=n_bootstrap,
            seed=seed,
        )
        out = self._response_base(entry, stale)
        out.update(
            {
                "names": list(indices.names),
                "S1": indices.S1.tolist(),
                "ST": indices.ST.tolist(),
                "S1_conf": indices.S1_conf.tolist(),
                "ST_conf": indices.ST_conf.tolist(),
                "variance": float(indices.variance),
                "n_base": int(indices.n_base),
            }
        )
        if include_model:
            out["model"] = dict(entry.model)
        return out

    def resident_count(self) -> int:
        with self._lock:
            return len(self._resident)
