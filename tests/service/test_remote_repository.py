"""The crowd-tuning API (CrowdClient + TLA) over the sharded service.

`RemoteRepository` is the one client path: the node's routes, as the
crowd client calls them, so everything downstream — `query_source_data`,
transfer tuning, evaluation sync — behaves the same against the sharded
service as against one in-process node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.synthetic import DemoFunction
from repro.core import TunerOptions, perf
from repro.core.problem import Evaluation
from repro.crowd import CrowdClient, MetaDescription
from repro.crowd.users import AuthError
from repro.fabric import FabricOptions, FabricTuner
from repro.service import CrowdShard, RegistryOptions, RemoteRepository, build_service
from repro.tla import MultitaskTS


@pytest.fixture()
def svc():
    service = build_service(3, replication=2)
    yield service
    service.close()


@pytest.fixture()
def remote(svc):
    return RemoteRepository(svc.client)


@pytest.fixture()
def key(svc):
    return svc.register_user("user_A", "a@lab.gov")[1]


@pytest.fixture()
def problem():
    return DemoFunction().make_problem(noisy=False)


def _meta(key, sync="no"):
    return MetaDescription.from_dict(
        {
            "api_key": key,
            "tuning_problem_name": "demo",
            "problem_space": {
                "input_space": [
                    {"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}
                ],
                "parameter_space": [
                    {
                        "name": "x",
                        "type": "real",
                        "lower_bound": 0.0,
                        "upper_bound": 1.0,
                    }
                ],
                "output_space": [{"name": "y", "type": "output"}],
            },
            "sync_crowd_repo": sync,
        }
    )


def _seed_tasks(remote, key, problem, tasks, n, seed=0):
    rng = np.random.default_rng(seed)
    space = problem.parameter_space
    for task in tasks:
        for _ in range(n):
            cfg = space.sample(rng)
            evaluation = Evaluation(dict(task), cfg, problem.objective(task, cfg))
            remote.upload(key, problem.name, evaluation, {}, {})


class TestRemoteRepository:
    def test_upload_and_query_round_trip(self, remote, key, problem):
        _seed_tasks(remote, key, problem, [{"t": 1.0}, {"t": 2.0}], 4)
        records = remote.query(key, problem_name="demo")
        assert len(records) == 8
        assert {r.owner for r in records} == {"user_A"}
        pinned = remote.query(key, problem_name="demo", task_parameters={"t": 1.0})
        assert len(pinned) == 4
        with pytest.raises(TypeError):  # a misspelled filter, not every problem
            remote.query(key, problem="demo")

    def test_query_sql_and_problems(self, remote, key, problem):
        _seed_tasks(remote, key, problem, [{"t": 3.0}], 5)
        assert remote.problems(key) == ["demo"]
        top = remote.query_sql(
            key, "SELECT * WHERE problem_name = 'demo' ORDER BY output LIMIT 2"
        )
        assert len(top) == 2
        assert top[0].output <= top[1].output

    def test_bad_key_raises_auth_error(self, remote, key, problem):
        with pytest.raises(AuthError):
            remote.query("not-a-key", problem_name="demo")
        with pytest.raises(AuthError):
            remote.authenticate("not-a-key")


class TestCrowdClientOverService:
    def test_client_authenticates_via_whoami(self, remote, key):
        client = CrowdClient(remote, _meta(key))
        assert client.user.username == "user_A"
        with pytest.raises(AuthError):
            CrowdClient(remote, _meta("bogus-key"))

    def test_query_source_data_groups_per_task(self, remote, key, problem):
        _seed_tasks(remote, key, problem, [{"t": 1.0}, {"t": 5.0}], 6)
        client = CrowdClient(remote, _meta(key))
        sources = client.query_source_data(problem.parameter_space)
        assert len(sources) == 2
        assert all(s.n == 6 for s in sources)

    def test_tune_transfer_learns_from_crowd_data(self, remote, key, problem):
        _seed_tasks(remote, key, problem, [{"t": 2.0}, {"t": 8.0}], 8, seed=1)
        client = CrowdClient(remote, _meta(key, sync="yes"))
        result = client.tune(
            problem,
            {"t": 5.0},
            6,
            strategy=MultitaskTS(),
            seed=0,
            min_source_samples=5,
        )
        assert len(result.history) == 6
        assert np.isfinite(result.best_output)
        # sync_crowd_repo=yes: the run's evaluations landed in the service
        target = remote.query(
            key, problem_name="demo", task_parameters={"t": 5.0}
        )
        assert len(target) == 6


class TestOneClientPath:
    """Every caller reaches the crowd through the node's routes."""

    def test_client_over_a_bare_node_serves_its_registry(self, problem):
        """The registry answer equals the fit-locally answer under the
        registry's seed, on one in-process node."""
        node = CrowdShard("node", registry=RegistryOptions())
        register = {"route": "register", "username": "u", "email": "u@lab.gov"}
        key = node.handle(register)["api_key"]
        _seed_tasks(RemoteRepository(node), key, problem, [{"t": 2.0}], 12)
        client = CrowdClient(node, _meta(key))
        assert isinstance(client.repository, RemoteRepository)
        probes = [{"x": 0.1}, {"x": 0.55}, {"x": 0.9}]
        answer = client.query_predict_output(probes, {"t": 2.0})  # registers the problem
        served = client.repository.predict(key, "demo", {"t": 2.0}, probes)
        assert served["ok"] and np.array_equal(served["mean"], answer)
        local = CrowdClient(node, _meta(key), use_registry=False).query_predict_output(
            probes, {"t": 2.0}, seed=RegistryOptions().seed
        )
        assert np.array_equal(served["mean"], local)

    def test_source_data_and_fabric_consult_skip_the_same_records(self, svc, key, problem):
        """One record -> observation rule: a record with a parameter the
        space does not have is skipped, and counted, by both readers."""
        task = {"t": 1.0}
        for config in ({"x": 0.25}, {"x": 0.5}, {"x": 0.75, "extra": 3}, {"x": 0.9}):
            response = svc.client.handle(
                {
                    "route": "upload",
                    "api_key": key,
                    "problem_name": problem.name,
                    "task_parameters": task,
                    "tuning_parameters": config,
                    "output": problem.objective(task, {"x": config["x"]}),
                }
            )
            assert response["ok"]
        with perf.collect() as stats:
            client = CrowdClient(RemoteRepository(svc.client), _meta(key))
            (source,) = client.query_source_data(problem.parameter_space)
        res = FabricTuner(
            problem,
            TunerOptions(n_initial=1),
            FabricOptions(n_procs=1),
            crowd=svc.client,
            api_key=key,
            consult=True,
        ).tune(task, 1, seed=0)
        seeded = [e for e in res.history if e.metadata.get("crowd_seed")]
        assert source.n == len(seeded) == 3
        assert np.array_equal(
            source.X, problem.parameter_space.to_unit_array([e.config for e in seeded])
        )
        assert np.array_equal(source.y, [e.output for e in seeded])
        assert stats.counters["crowd_source_skipped"] == 1
        assert res.perf["counters"]["fabric_consult_skipped"] == 1
