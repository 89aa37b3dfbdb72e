"""The registry inside the sharded service: end-to-end serving, entry
versions, WAL recovery, anti-entropy healing, and the CrowdClient
consult-first/fit-locally fallback contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.synthetic import DemoFunction
from repro.core import GaussianProcess, perf
from repro.core.gp import GPFitError
from repro.crowd import CrowdClient, MetaDescription
from repro.registry import (
    REGISTRY_MODELS,
    REGISTRY_PROBLEMS,
    RegistryOptions,
)
from repro.service import CrowdShard, build_service
from repro.service.shard import shard_key
from repro.tla import MultitaskPS, TransferTuner

from ..service.links import lossy

PROBLEM = "demo"
TASK = {"t": 2}
SPACE = {
    "input_space": [
        {"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}
    ],
    "parameter_space": [
        {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
    ],
    "output_space": [{"name": "y", "type": "output"}],
}
PROBE = [{"x": 0.15}, {"x": 0.4}, {"x": 0.85}]


def _upload(endpoint, key, i, *, task=None):
    return endpoint.handle(
        {
            "route": "upload",
            "api_key": key,
            "problem_name": PROBLEM,
            "task_parameters": dict(TASK if task is None else task),
            "tuning_parameters": {"x": (i % 10) / 10.0},
            "output": float(i % 7) - 3.0,
        }
    )


def _register(endpoint, key):
    return endpoint.handle(
        {
            "route": "register_problem",
            "api_key": key,
            "problem_name": PROBLEM,
            "problem_space": SPACE,
        }
    )


def _predict(endpoint, key, *, task=None, configs=PROBE):
    return endpoint.handle(
        {
            "route": "predict",
            "api_key": key,
            "problem_name": PROBLEM,
            "task_parameters": dict(TASK if task is None else task),
            "configurations": list(configs),
        }
    )


def _sensitivity(endpoint, key, **params):
    return endpoint.handle(
        {
            "route": "sensitivity",
            "api_key": key,
            "problem_name": PROBLEM,
            "task_parameters": dict(TASK),
            "seed": 0,
            **params,
        }
    )


def _meta(key):
    return MetaDescription.from_dict(
        {
            "api_key": key,
            "tuning_problem_name": PROBLEM,
            "problem_space": SPACE,
        }
    )


@pytest.fixture()
def svc():
    service = build_service(3, replication=2, registry=RegistryOptions())
    yield service
    service.close()


@pytest.fixture()
def key(svc):
    return svc.register_user("alice", "alice@lab.gov")[1]


class TestRegistryRoutes:
    def test_register_problem_broadcasts_to_every_shard(self, svc, key):
        response = _register(svc.client, key)
        assert response["ok"]
        assert response["replicas_acked"] == 3
        for shard in svc.shards.values():
            doc = shard.repository.store[REGISTRY_PROBLEMS].find_one(
                {"problem_name": PROBLEM}
            )
            assert doc is not None
            assert doc["problem_space"] == SPACE

    def test_predict_without_registry_is_not_found(self):
        service = build_service(2)  # no registry attached
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            assert _predict(service.client, k)["error"] == "not_found"
        finally:
            service.close()

    def test_predict_needs_registered_problem(self, svc, key):
        for i in range(4):
            _upload(svc.client, key, i)
        assert _predict(svc.client, key)["error"] == "not_found"

    def test_repeated_predict_never_refits(self, svc, key):
        _register(svc.client, key)
        for i in range(6):
            _upload(svc.client, key, i)
        first = _predict(svc.client, key)
        assert first["ok"]
        # the acceptance pin: after the first build, serving is fit-free
        with perf.collect() as stats:
            for _ in range(5):
                response = _predict(svc.client, key)
                assert response["mean"] == first["mean"]
        assert stats.counters.get("gp_fits", 0) == 0

    def test_uploads_to_other_tasks_leave_entry_alone(self, svc, key):
        _register(svc.client, key)
        for i in range(5):
            _upload(svc.client, key, i)
        first = _predict(svc.client, key)
        for i in range(3):
            _upload(svc.client, key, i, task={"t": 9})
        assert _predict(svc.client, key)["data_version"] == first["data_version"]


class TestSensitivityRequests:
    """Sizes a ``sensitivity`` request may not ask for are refused as
    ``bad_request`` by one node and through the router."""

    @pytest.fixture()
    def server(self):
        return CrowdShard("node", registry=RegistryOptions())

    @staticmethod
    def _loaded(endpoint, key):
        _register(endpoint, key)
        for i in range(6):
            assert _upload(endpoint, key, i)["ok"]

    @pytest.mark.parametrize("n_bootstrap", [1, -1])
    def test_server_refuses_a_bootstrap_without_spread(self, server, n_bootstrap):
        k = server.handle(
            {"route": "register", "username": "bob", "email": "b@lab.gov"}
        )["api_key"]
        self._loaded(server, k)
        assert _sensitivity(server, k, n_base=16, n_bootstrap=2)["ok"]
        response = _sensitivity(server, k, n_base=16, n_bootstrap=n_bootstrap)
        assert response["error"] == "bad_request", response

    @pytest.mark.parametrize("n_bootstrap", [1, -1])
    def test_router_refuses_a_bootstrap_without_spread(self, svc, key, n_bootstrap):
        self._loaded(svc.client, key)
        response = _sensitivity(svc.client, key, n_base=16, n_bootstrap=n_bootstrap)
        assert response["error"] == "bad_request", response

    def test_router_bounds_n_base(self, svc, key):
        self._loaded(svc.client, key)
        assert _sensitivity(svc.client, key, n_base=2**14, n_bootstrap=0)["ok"]
        response = _sensitivity(svc.client, key, n_base=2**14 + 1, n_bootstrap=0)
        assert response["error"] == "bad_request", response

    def test_router_bounds_n_bootstrap(self, svc, key):
        self._loaded(svc.client, key)
        assert _sensitivity(svc.client, key, n_base=16, n_bootstrap=10_000)["ok"]
        response = _sensitivity(svc.client, key, n_base=16, n_bootstrap=10_001)
        assert response["error"] == "bad_request", response


class TestCrowdClientConsultation:
    def test_predictions_bit_identical_to_local_fallback(self, svc, key):
        for i in range(8):
            _upload(svc.client, key, i)
        repo = svc.client
        via_registry = CrowdClient(repo, _meta(key))
        local = CrowdClient(repo, _meta(key), use_registry=False)
        via_registry.query_predict_output(PROBE, TASK)  # first call: builds
        with perf.collect() as stats:
            served = via_registry.query_predict_output(PROBE, TASK)
        assert stats.counters.get("gp_fits", 0) == 0
        with perf.collect() as stats:
            fitted = local.query_predict_output(PROBE, TASK, seed=0)
        assert stats.counters.get("gp_fits", 0) >= 1
        assert np.array_equal(served, fitted)

    def test_surrogate_model_reconstructed_not_refit(self, svc, key):
        for i in range(8):
            _upload(svc.client, key, i)
        client = CrowdClient(svc.client, _meta(key))
        client.query_predict_output(PROBE, TASK)  # triggers the build
        with perf.collect() as stats:
            gp = client.query_surrogate_model(TASK)
        assert stats.counters.get("gp_fits", 0) == 0
        X = np.array([[c["x"]] for c in PROBE])
        local = CrowdClient(
            svc.client, _meta(key), use_registry=False
        ).query_surrogate_model(TASK, seed=0)
        assert np.array_equal(gp.predict_mean(X), local.predict_mean(X))

    def test_sensitivity_report_served_fit_free(self, svc, key):
        for i in range(10):
            _upload(svc.client, key, i)
        client = CrowdClient(svc.client, _meta(key))
        client.query_predict_output(PROBE, TASK)  # triggers the build
        with perf.collect() as stats:
            report = client.query_sensitivity_analysis(TASK, n_base=64, seed=0)
        assert stats.counters.get("gp_fits", 0) == 0
        assert report.indices.names == ["x"]
        assert report.n_samples == 10
        assert report.space.names == ["x"]

    def test_cross_task_and_max_samples_queries_fit_locally(self, svc, key):
        for i in range(8):
            _upload(svc.client, key, i)
        client = CrowdClient(svc.client, _meta(key))
        with perf.collect() as stats:
            client.query_predict_output(PROBE)  # task=None: local path
        assert stats.counters.get("gp_fits", 0) == 1
        with perf.collect() as stats:
            client.query_sensitivity_analysis(TASK, n_base=64, max_samples=6, seed=0)
        assert stats.counters.get("gp_fits", 0) >= 1

    def test_no_registry_falls_back_permanently(self):
        service = build_service(2)  # no registry
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            for i in range(6):
                _upload(service.client, k, i)
            client = CrowdClient(service.client, _meta(k))
            with perf.collect() as stats:
                out = client.query_predict_output(PROBE, TASK, seed=0)
            assert stats.counters.get("gp_fits", 0) == 1
            assert out.shape == (len(PROBE),)
            assert not client._use_registry  # one failed probe disables it
        finally:
            service.close()


class TestMultitaskPSFromRegistryModels:
    def test_transfer_from_registry_models_only(self, svc, key):
        """The [11] history-database mode: bob transfer-tunes from the
        registry's model of alice's task, never seeing her raw samples."""
        problem = DemoFunction().make_problem(noisy=False)
        space = problem.parameter_space
        rng = np.random.default_rng(0)
        for config in (space.sample(rng) for _ in range(60)):
            assert svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": PROBLEM,
                    "task_parameters": {"t": 0.8},
                    "tuning_parameters": config,
                    "output": problem.objective({"t": 0.8}, config),
                }
            )["ok"]

        _, bob = svc.register_user("bob", "bob@lab.gov")
        client = CrowdClient(svc.client, _meta(bob))
        client.query_predict_output(PROBE, {"t": 0.8})  # triggers the build
        with perf.collect() as stats:
            gp = client.query_surrogate_model({"t": 0.8})
        assert stats.counters.get("gp_fits", 0) == 0

        strategy = MultitaskPS()
        strategy.prepare_from_models([gp], dim=space.dim, rng=np.random.default_rng(1))
        res = TransferTuner(problem, strategy, sources=[]).tune({"t": 1.0}, 6, seed=2)
        assert res.n_evaluations == 6
        assert res.best_output < 1.0  # beats the y=1 baseline easily


class TestDurabilityAndHealing:
    def test_entries_survive_shard_restart(self, tmp_path):
        service = build_service(
            2,
            replication=2,
            data_dir=tmp_path,
            registry=RegistryOptions(),
        )
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            _register(service.client, k)
            for i in range(6):
                _upload(service.client, k, i)
            first = _predict(service.client, k)
            assert first["ok"]
            for name in list(service.shards):
                service.restart_shard(name)
            # recovery rebuilt the stores from WAL: the entry is intact
            # and serving needs no refit
            with perf.collect() as stats:
                recovered = _predict(service.client, k)
            assert stats.counters.get("gp_fits", 0) == 0
            assert recovered["mean"] == first["mean"]
            assert recovered["std"] == first["std"]
            assert recovered["data_version"] == first["data_version"]
        finally:
            service.close()

    def test_anti_entropy_heals_entries_to_replicas(self):
        # a huge debounce keeps uploads from building: the only build
        # happens on demand, on the shard that served the first predict
        service = build_service(
            3,
            replication=2,
            registry=RegistryOptions(min_new_samples=10**6),
        )
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            _register(service.client, k)
            for i in range(6):
                _upload(service.client, k, i)
            first = _predict(service.client, k)
            assert first["ok"]
            ring_key = shard_key(PROBLEM, TASK)
            primary, backup = service.router.ring.preference(ring_key, 2)
            assert service.shards[primary].repository.store[
                REGISTRY_MODELS
            ].find_one({"problem_name": PROBLEM})
            assert (
                service.shards[backup].repository.store[REGISTRY_MODELS].find_one(
                    {"problem_name": PROBLEM}
                )
                is None
            )
            service.router.anti_entropy_round()
            healed = service.shards[backup].repository.store[
                REGISTRY_MODELS
            ].find_one({"problem_name": PROBLEM})
            assert healed is not None
            # the healed replica serves the identical model, fit-free
            service.kill_shard(primary)
            with perf.collect() as stats:
                survived = _predict(service.client, k)
            assert stats.counters.get("gp_fits", 0) == 0
            assert survived["ok"]
            assert survived["mean"] == first["mean"]
        finally:
            service.close()

    def test_anti_entropy_is_quiescent_when_converged(self, svc, key):
        _register(svc.client, key)
        for i in range(6):
            _upload(svc.client, key, i)
        _predict(svc.client, key)
        svc.router.anti_entropy_round()
        stats = svc.router.anti_entropy_round()
        assert stats["healed"] == 0


def _boom(self, X, y):
    raise GPFitError("covariance not factorizable (scripted)")


def _records(service):
    return {n: s.count() for n, s in service.shards.items()}


class TestBuildFailure:
    """A build runs on the upload path, after the record is stored: it
    may fail, the write it rode on may not."""

    def test_upload_answer_does_not_depend_on_the_build(self, monkeypatch):
        service = build_service(
            2, replication=2, write_quorum=2, registry=RegistryOptions()
        )
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            _register(service.client, k)
            for i in range(2):
                assert _upload(service.client, k, i)["ok"]
            served = _predict(service.client, k)
            assert served["data_version"] == 2 and not served["stale"]

            monkeypatch.setattr(GaussianProcess, "fit", _boom)
            with perf.collect() as stats:
                response = _upload(service.client, k, 2)
            assert response["ok"] and response["replicas_acked"] == 2, response
            assert _records(service) == {"shard-0": 3, "shard-1": 3}
            assert stats.counters["registry_build_errors"] == 2  # one a replica
            assert stats.counters.get("registry_builds", 0) == 0
            for shard in service.shards.values():
                problem, _, reason = shard.registry.last_build_error
                assert problem == PROBLEM and "GPFitError" in reason
            # the previous entry keeps being served, and says it is stale
            stale = _predict(service.client, k)
            assert stale["stale"] and stale["data_version"] == 2
            assert stale["mean"] == served["mean"]

            monkeypatch.undo()
            assert _upload(service.client, k, 3)["ok"]
            fresh = _predict(service.client, k)
            assert fresh["data_version"] == 4 and not fresh["stale"]
        finally:
            service.close()

    def test_one_bad_key_does_not_abort_a_healing_round(self, monkeypatch):
        service = build_service(2, registry=RegistryOptions())
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            _register(service.client, k)
            with lossy(service.transports["shard-1"]):
                for task in ({"t": 1}, {"t": 2}, {"t": 3}):
                    for i in range(3):
                        assert _upload(service.client, k, i, task=task)["ok"]
            assert _records(service) == {"shard-0": 9, "shard-1": 0}

            monkeypatch.setattr(GaussianProcess, "fit", _boom)
            with perf.collect() as stats:
                service.router.anti_entropy_round()
            assert _records(service) == {"shard-0": 9, "shard-1": 9}
            assert stats.counters["registry_build_errors"] >= 3
        finally:
            service.close()


class TestDebounceRecovery:
    """Both write-side numbers are functions of the store, so a restart
    keeps the build schedule of the shard that never went down."""

    @pytest.mark.parametrize("restart", [False, True], ids=["steady", "restarted"])
    def test_restart_keeps_the_build_schedule(self, tmp_path, restart):
        service = build_service(
            1, replication=1, data_dir=tmp_path,
            registry=RegistryOptions(min_new_samples=4),
        )
        try:
            _, k = service.register_user("bob", "b@lab.gov")
            _register(service.client, k)
            with perf.collect() as stats:
                for i in range(7):
                    assert _upload(service.client, k, i)["ok"]
                if restart:  # 3 of the 4 notifications pending
                    service.restart_shard("shard-0")
                assert _upload(service.client, k, 7)["ok"]
            assert stats.counters["registry_builds"] == 2
            entry = service.shards["shard-0"].registry.entry_for(PROBLEM, TASK)
            assert entry.data_version == 8
        finally:
            service.close()

    def test_a_healed_in_entry_sets_where_the_debounce_resumes(self, tmp_path):
        """A registry-less node holds an entry a peer built at version 4
        and 7 records; restarted with a registry, it owes the next build
        at version 8 — not at 11, and not on every upload."""
        opts = RegistryOptions(min_new_samples=4)
        with build_service(1, replication=1, registry=opts) as peer:
            users = peer.users
            _, k = peer.register_user("bob", "b@lab.gov")
            _register(peer.client, k)
            for i in range(7):
                assert _upload(peer.client, k, i)["ok"]
            store = peer.shards["shard-0"].repository.store
            held = {
                name: store[name].find({})
                for name in (REGISTRY_PROBLEMS, "performance_records", REGISTRY_MODELS)
            }
        (entry,) = held[REGISTRY_MODELS]
        assert entry["data_version"] == 4

        with CrowdShard("s0", tmp_path, users=users) as bare:
            for name, docs in held.items():
                response = bare.handle(
                    {"route": "replicate", "collection": name, "records": docs}
                )
                assert response["ok"] and response["applied"] == len(docs)
        with CrowdShard("s0", tmp_path, users=users, registry=opts) as shard:
            assert shard.registry.data_version(PROBLEM, entry["task_key"]) == 7
            with perf.collect() as stats:
                assert _upload(shard, k, 7)["ok"]
            assert stats.counters["registry_builds"] == 1
            assert shard.registry.entry_for(PROBLEM, TASK).data_version == 8
            with perf.collect() as stats:
                for i in range(8, 11):
                    assert _upload(shard, k, i)["ok"]
            assert stats.counters.get("registry_builds", 0) == 0
