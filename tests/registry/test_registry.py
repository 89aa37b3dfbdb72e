"""Unit tests for the frozen surrogate-model registry core.

Covers the write side (version counting, debounced builds, a failing
build), the read side (serving, staleness, the resident LRU) and the
replication hooks (newest-wins apply of problem/entry documents).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import perf
from repro.crowd import CrowdRepository, PerformanceRecord
from repro.core.problem import task_key
from repro.crowd.records import Accessibility
from repro.registry import (
    REGISTRY_MODELS,
    REGISTRY_PROBLEMS,
    ModelRegistry,
    RegistryEntry,
    RegistryOptions,
    record_counts,
    space_fingerprint,
)
from tests.conftest import register


SPACE = {
    "parameter_space": [
        {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
    ]
}
TASK = {"t": 1}


@pytest.fixture
def repo():
    return CrowdRepository()


@pytest.fixture
def key(repo):
    return register(repo.users, "alice")


def _record(i, *, task=None, output=0.0, level="public", problem="demo"):
    return PerformanceRecord(
        problem_name=problem,
        task_parameters=dict(TASK if task is None else task),
        tuning_parameters={"x": (i % 10) / 10.0},
        output=output,
        accessibility=Accessibility(level=level),
    )


def _feed(registry, repo, key, n, *, task=None, start=0):
    """Upload + notify n eligible records, the way the server does."""
    for i in range(start, start + n):
        rec = _record(i, task=task, output=float(i))
        repo.upload_many([rec], key)
        registry.notify([rec.to_doc()])


class TestEligibility:
    def test_only_public_successful_records_count(self):
        assert record_counts({"output": 1.0})
        assert not record_counts({"output": None})
        assert not record_counts(
            {"output": 1.0, "accessibility": {"level": "private"}}
        )

    def test_ineligible_records_bump_nothing(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        registry.notify(
            [_record(0, output=None).to_doc(), _record(1, level="private").to_doc()]
        )
        assert registry.data_version("demo", repr(task_key(TASK))) == 0


class TestRegisterProblem:
    def test_requires_name_and_parameter_space(self, repo):
        registry = ModelRegistry(repo)
        with pytest.raises(ValueError):
            registry.register_problem("", SPACE)
        with pytest.raises(ValueError):
            registry.register_problem("demo", {})
        with pytest.raises(Exception):
            registry.register_problem("demo", {"parameter_space": [{"type": "real"}]})

    def test_newest_wins(self, repo):
        registry = ModelRegistry(repo)
        assert registry.register_problem("demo", SPACE, timestamp=5.0)
        # an older registration does not overwrite
        assert not registry.register_problem("demo", SPACE, timestamp=1.0)
        assert registry.register_problem("demo", SPACE, timestamp=9.0)
        assert registry.problem_space("demo") is not None


class TestBuildAndServe:
    def test_unregistered_problem_is_not_served(self, repo, key):
        registry = ModelRegistry(repo)
        _feed(registry, repo, key, 4)
        with pytest.raises(LookupError):
            registry.predict("demo", TASK, [{"x": 0.5}])

    def test_too_few_samples_is_not_served(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 1)
        with pytest.raises(LookupError):
            registry.predict("demo", TASK, [{"x": 0.5}])

    def test_reads_share_the_stored_payload(self, repo, key):
        """A lookup does not thaw what it only looks at: the served entry's
        nested arrays are the stored (frozen) objects, while the top-level
        containers it hands out are the caller's own."""
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 5)
        stored = repo.store[REGISTRY_MODELS].find_one({"problem_name": "demo"}, frozen=True)
        entry = registry.entry_for("demo", TASK)
        for field in ("X", "y_raw", "alpha", "lengthscales"):
            assert entry.model[field] is stored["model"][field]
        assert registry.problem_doc("demo")["problem_space"]["parameter_space"] is (
            repo.store[REGISTRY_PROBLEMS].find_one({}, frozen=True)
        )["problem_space"]["parameter_space"]

        meta = registry.model_meta("demo", TASK, include_model=True)
        before = registry.predict("demo", TASK, [{"x": 0.3}])
        meta["model"]["X"] = []
        meta["model"].pop("alpha")
        meta["task_parameters"]["t"] = 99
        assert registry.entry_for("demo", TASK).to_doc() == entry.to_doc()
        registry._resident.clear()  # next predict reloads from the store
        assert registry.predict("demo", TASK, [{"x": 0.3}]) == before

    def test_build_on_upload_then_serve_without_fits(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 5)
        entry = registry.entry_for("demo", TASK)
        assert entry is not None
        assert entry.data_version == 5 and entry.n_samples == 5
        with perf.collect() as stats:
            out = registry.predict("demo", TASK, [{"x": 0.2}, {"x": 0.8}])
        assert stats.counters.get("gp_fits", 0) == 0
        assert stats.counters["registry_hits"] == 1
        assert stats.counters["registry_predict_batches"] == 1
        assert len(out["mean"]) == 2 and len(out["std"]) == 2
        assert not out["stale"]
        assert out["space_fingerprint"] == space_fingerprint(SPACE)

    def test_build_is_deterministic_across_replicas(self):
        entries = []
        for _ in range(2):
            repo = CrowdRepository()
            k = register(repo.users, "alice")
            registry = ModelRegistry(repo)
            registry.register_problem("demo", SPACE, timestamp=1.0)
            _feed(registry, repo, k, 6)
            entries.append(registry.entry_for("demo", TASK).to_doc())
        # replicas holding the same record set build byte-identical
        # entries (modulo upload timestamps, which the router stamps
        # identically in the real deployment)
        for doc in entries:
            doc.pop("timestamp")
        assert entries[0] == entries[1]

    def test_debounce_min_new_samples(self, repo, key):
        registry = ModelRegistry(
            repo, RegistryOptions(min_new_samples=3, min_samples=2)
        )
        registry.register_problem("demo", SPACE)
        with perf.collect() as stats:
            _feed(registry, repo, key, 2)
        assert stats.counters.get("registry_builds", 0) == 0
        with perf.collect() as stats:
            _feed(registry, repo, key, 1, start=2)  # third notification: due
        assert stats.counters["registry_builds"] == 1
        assert registry.entry_for("demo", TASK).data_version == 3

    def test_a_build_that_yields_nothing_waits_for_new_samples(
        self, repo, key, monkeypatch
    ):
        """An unregistered problem: every due build returns ``None``.  (A
        key whose count had reached ``min_new_samples`` used to attempt a
        build on *every* later upload — the count was only ever reset by
        a build that succeeded.)"""
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=4))
        attempts = []
        build = registry.build

        def counted(problem, task):
            attempts.append(problem)
            return build(problem, task)

        monkeypatch.setattr(registry, "build", counted)
        _feed(registry, repo, key, 22)
        assert 1 <= len(attempts) <= -(-22 // 4)
        assert registry.entry_for("demo", TASK) is None
        # registering late is still served on the first read
        registry.register_problem("demo", SPACE)
        with perf.collect() as stats:
            meta = registry.model_meta("demo", TASK)
        assert stats.counters["registry_builds"] == 1
        assert meta["data_version"] == 22 and not meta["stale"]

    def test_stale_entry_is_served_and_counted(self, repo, key):
        registry = ModelRegistry(
            repo, RegistryOptions(min_new_samples=100, min_samples=2)
        )
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 3)
        registry.predict("demo", TASK, [{"x": 0.5}])  # build on first demand
        _feed(registry, repo, key, 2, start=3)  # not enough to rebuild
        with perf.collect() as stats:
            out = registry.predict("demo", TASK, [{"x": 0.5}])
        assert out["stale"]
        assert out["data_version"] == 3
        assert stats.counters["registry_stale_served"] == 1

    def test_model_meta_round_trips_the_exact_model(self, repo, key):
        from repro.core import GaussianProcess

        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 5)
        meta = registry.model_meta("demo", TASK, include_model=True)
        assert meta["kernel"] == "rbf" and meta["n_samples"] == 5
        gp = GaussianProcess.from_dict(meta["model"])
        X = np.linspace(0, 0.9, 7)[:, None]
        served = registry.predict(
            "demo", TASK, [{"x": float(v)} for v in X.ravel()]
        )
        mean, std = gp.predict(X)
        assert np.array_equal(np.array(served["mean"]), mean.ravel())
        assert np.array_equal(np.array(served["std"]), std.ravel())

    def test_sensitivity_served_from_frozen_model(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 6)
        with perf.collect() as stats:
            out = registry.sensitivity("demo", TASK, n_base=64, n_bootstrap=8, seed=0)
        assert stats.counters.get("gp_fits", 0) == 0
        assert out["names"] == ["x"]
        assert len(out["S1"]) == 1 and len(out["ST"]) == 1
        # deterministic given the frozen model + seed
        again = registry.sensitivity("demo", TASK, n_base=64, n_bootstrap=8, seed=0)
        assert again["S1"] == out["S1"] and again["ST"] == out["ST"]


class TestMalformedStoredBlocks:
    """A stored block the eligibility predicates cannot read fails
    exactly the builds whose filter reaches it."""

    @staticmethod
    def _store_bad(repo, problem):
        repo.store["performance_records"].insert(
            {
                "uid": 999,
                "problem_name": problem,
                "task_parameters": dict(TASK),
                "tuning_parameters": {"x": 0.9},
                "output": 9.0,
                "owner": "alice",
                "accessibility": "not-a-mapping",
                "timestamp": 99.0,
            }
        )

    def test_unmatched_record_leaves_builds_unaffected(self, repo, key):
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=100))
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 4)
        self._store_bad(repo, "other")
        assert registry.build("demo", TASK).n_samples == 4

    def test_matched_record_raises_what_reading_it_raises(self, repo, key):
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=100))
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 4)
        self._store_bad(repo, "demo")
        with pytest.raises(AttributeError, match="no attribute 'get'"):
            registry.build("demo", TASK)

    def test_notify_counts_the_failed_build_and_keeps_the_reason(self, repo, key):
        registry = ModelRegistry(repo, RegistryOptions(min_new_samples=2))
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 2)
        self._store_bad(repo, "demo")
        with perf.collect() as stats:
            _feed(registry, repo, key, 3, start=2)  # one due attempt, spent
        assert stats.counters["registry_build_errors"] == 1
        assert stats.counters.get("registry_builds", 0) == 0
        problem, tk, reason = registry.last_build_error
        assert (problem, tk) == ("demo", repr(task_key(TASK)))
        assert "AttributeError" in reason
        assert registry.predict("demo", TASK, [{"x": 0.5}])["stale"]


class TestResidentCache:
    def test_lru_bounded_by_max_resident(self, repo, key):
        registry = ModelRegistry(
            repo, RegistryOptions(max_resident=2, min_samples=2)
        )
        registry.register_problem("demo", SPACE)
        for t in range(4):
            _feed(registry, repo, key, 3, task={"t": t}, start=3 * t)
        assert registry.resident_count() <= 2
        # evicted entries are rebuilt from their stored snapshot, not refit
        with perf.collect() as stats:
            registry.predict("demo", {"t": 0}, [{"x": 0.5}])
        assert stats.counters.get("gp_fits", 0) == 0

    def test_reader_keeps_its_model_across_a_rebuild(self, repo, key):
        """Why the registry needs no snapshot type: a resident model is
        never refit — a rebuild fits a new object and swaps the resident
        tuple — so a reader holding the old one keeps serving the old
        entry bit for bit, and the next read gets the new entry's model."""
        from repro.core import surrogate_from_dict

        registry = ModelRegistry(repo, RegistryOptions(min_samples=2))
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 6)
        configs = [{"x": float(v)} for v in np.linspace(0.0, 0.9, 16)]
        X = registry.problem_space("demo").to_unit_array(configs)
        old_entry, held, _ = registry._serve("demo", TASK)
        mean_before, std_before = held.predict(X)
        served_old = registry.predict("demo", TASK, configs)

        _feed(registry, repo, key, 5, start=6)
        new_entry = registry.entry_for("demo", TASK)
        assert new_entry.data_version > old_entry.data_version

        mean_after, std_after = held.predict(X)
        assert np.array_equal(mean_after, mean_before)
        assert np.array_equal(std_after, std_before)
        served_new = registry.predict("demo", TASK, configs)
        assert served_new["data_version"] == new_entry.data_version
        assert served_new["mean"] != served_old["mean"]
        assert registry._predictor_for(new_entry) is not held
        mean_new, std_new = surrogate_from_dict(dict(new_entry.model)).predict(X)
        assert served_new["mean"] == [float(v) for v in mean_new]
        assert served_new["std"] == [float(v) for v in std_new]


class TestReplicationHooks:
    def test_apply_entry_newest_wins(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 4)
        doc = registry.entry_for("demo", TASK).to_doc()
        stale = dict(doc, data_version=1, timestamp=0.5)
        assert not registry.apply_entry(stale)  # older: rejected
        newer = dict(doc, data_version=doc["data_version"] + 1)
        assert registry.apply_entry(newer)
        assert registry.entry_for("demo", TASK).data_version == doc["data_version"] + 1

    def test_replica_serves_the_builders_bytes(self, repo, key):
        """The shard that built an entry (an optimized fit) and a shard that
        only received it through ``apply_entry`` serve identical bytes."""
        space = {
            "parameter_space": [
                {"name": n, "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
                for n in ("x", "y", "z")
            ]
        }
        rng = np.random.default_rng(7)
        builder = ModelRegistry(repo)
        builder.register_problem("demo", space)
        for _ in range(40):
            cfg = {n: float(v) for n, v in zip("xyz", rng.random(3))}
            rec = PerformanceRecord(
                problem_name="demo",
                task_parameters=dict(TASK),
                tuning_parameters=cfg,
                output=float(np.sin(3 * cfg["x"]) + cfg["y"] ** 2 - 0.5 * cfg["z"]),
                accessibility=Accessibility(level="public"),
            )
            repo.upload_many([rec], key)
            builder.notify([rec.to_doc()])
        entry = builder.entry_for("demo", TASK)
        assert entry is not None and entry.n_samples >= 32

        replica = ModelRegistry(CrowdRepository())
        replica.register_problem("demo", space)
        assert replica.apply_entry(entry.to_doc())
        probe = [{n: float(v) for n, v in zip("xyz", row)} for row in rng.random((16, 3))]
        with perf.collect() as stats:
            served = replica.predict("demo", TASK, probe)
        assert stats.counters.get("gp_fits", 0) == 0
        built = builder.predict("demo", TASK, probe)
        assert np.array_equal(served["mean"], built["mean"])
        assert np.array_equal(served["std"], built["std"])

    def test_applied_entry_evicts_resident_predictor(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        _feed(registry, repo, key, 4)
        registry.predict("demo", TASK, [{"x": 0.5}])
        doc = registry.entry_for("demo", TASK).to_doc()
        registry.apply_entry(dict(doc, data_version=doc["data_version"] + 1))
        # the healed entry is what gets served now
        out = registry.predict("demo", TASK, [{"x": 0.5}])
        assert out["data_version"] == doc["data_version"] + 1

    def test_notify_takes_a_batch_of_stored_docs(self, repo, key):
        registry = ModelRegistry(repo)
        registry.register_problem("demo", SPACE)
        docs = []
        for i in range(3):
            rec = _record(i, output=float(i))
            repo.upload_many([rec], key)
            docs.append(rec.to_doc())
        registry.notify(docs)
        assert registry.entry_for("demo", TASK) is not None
        assert registry.data_version("demo", repr(task_key(TASK))) == 3


class TestEntrySchema:
    def test_doc_round_trip(self):
        entry = RegistryEntry(
            problem_name="demo",
            task_parameters={"t": 1},
            task_key="(('t', 1),)",
            data_version=3,
            n_samples=3,
            kernel="rbf",
            seed=0,
            model={"kind": "gp"},
            timestamp=4.5,
            space_fingerprint="abc",
        )
        assert RegistryEntry.from_doc(entry.to_doc()) == entry
        assert entry.meta()["n_samples"] == 3

    def test_fingerprint_is_stable_and_order_insensitive(self):
        a = {"parameter_space": [{"name": "x"}], "input_space": []}
        b = {"input_space": [], "parameter_space": [{"name": "x"}]}
        assert space_fingerprint(a) == space_fingerprint(b)
        assert space_fingerprint(a) != space_fingerprint({"parameter_space": []})
