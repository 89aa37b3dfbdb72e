"""Tests for the crowd-tuning API: meta descriptions + utility functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.synthetic import DemoFunction
from repro.core import perf
from repro.core.problem import Evaluation
from repro.crowd import CrowdClient, MetaDescription
from repro.crowd.users import AuthError
from repro.service import CrowdShard, RemoteRepository
from repro.tla import MultitaskTS
from tests.conftest import register


@pytest.fixture
def node():
    """One in-process crowd node: the client reaches it through its routes."""
    return CrowdShard("node")


@pytest.fixture
def keys(node):
    return {name: register(node.repository.users, name) for name in ("user_A", "user_B")}


@pytest.fixture
def demo_problem():
    return DemoFunction().make_problem(noisy=False)


def _upload_source(node, key, problem, task, n, seed=0):
    rng = np.random.default_rng(seed)
    space = problem.parameter_space
    remote = RemoteRepository(node)
    for _ in range(n):
        cfg = space.sample(rng)
        evaluation = Evaluation(dict(task), cfg, problem.objective(task, cfg))
        remote.upload(key, problem.name, evaluation, {}, {})


def _meta(key, sync="no", **extra):
    doc = {
        "api_key": key,
        "tuning_problem_name": "demo",
        "problem_space": {
            "input_space": [
                {"name": "t", "type": "real", "lower_bound": 0, "upper_bound": 10}
            ],
            "parameter_space": [
                {"name": "x", "type": "real", "lower_bound": 0.0, "upper_bound": 1.0}
            ],
            "output_space": [{"name": "y", "type": "output"}],
        },
        "sync_crowd_repo": sync,
    }
    doc.update(extra)
    return MetaDescription.from_dict(doc)


class TestMetaDescription:
    def test_requires_key_and_name(self):
        with pytest.raises(ValueError):
            MetaDescription.from_dict({"api_key": "k"})
        with pytest.raises(ValueError):
            MetaDescription.from_dict({"tuning_problem_name": "p"})

    def test_sync_flag_parsing(self, keys):
        assert _meta(keys["user_A"], sync="yes").sync_crowd_repo
        assert not _meta(keys["user_A"], sync="no").sync_crowd_repo
        assert _meta(keys["user_A"], sync=True).sync_crowd_repo

    def test_malformed_space_rejected(self, keys):
        with pytest.raises(Exception):
            MetaDescription.from_dict(
                {
                    "api_key": keys["user_A"],
                    "tuning_problem_name": "p",
                    "problem_space": {"parameter_space": [{"type": "real"}]},
                }
            )

    def test_parameter_space_built(self, keys):
        space = _meta(keys["user_A"]).parameter_space()
        assert space.names == ["x"]

    def test_malformed_configuration_space_rejected(self, keys):
        """Regression: validate() checked the problem space but accepted
        any configuration_space, deferring the crash to query time."""
        bad_blocks = [
            "cori",  # not a mapping at all
            {"machine_configurations": "cori"},  # bare string, not a list
            {"machine_configurations": {"machine_name": "cori"}},  # mapping
            {"machine_configurations": ["cori"]},  # entry not a mapping
            {"software_configurations": [{"mpi": {"version_from": "4.0"}}]},
            {"user_configurations": "alice"},
        ]
        for block in bad_blocks:
            with pytest.raises(ValueError):
                _meta(keys["user_A"], configuration_space=block)

    def test_valid_configuration_space_accepted(self, keys):
        meta = _meta(
            keys["user_A"],
            configuration_space={
                "machine_configurations": [{"machine_name": "cori", "nodes": 8}],
                "software_configurations": [
                    {"mpi": {"version_from": [4, 0], "version_to": [4, 2]}},
                    {"blas": {}},
                ],
                "user_configurations": ["alice", "bob"],
            },
        )
        assert meta.configuration_space["user_configurations"] == ["alice", "bob"]

    def test_resolve_environment_spack_and_slurm(self, keys):
        meta = _meta(
            keys["user_A"],
            machine_configuration={
                "machine_name": "Cori",
                "slurm": "yes",
                "slurm_environment": {
                    "SLURM_JOB_NUM_NODES": "8",
                    "SLURM_JOB_PARTITION": "haswell",
                },
            },
            software_configuration={"spack": "scalapack@2.1.0%gcc@9.3.0"},
        )
        machine, software = meta.resolve_environment()
        assert machine["nodes"] == 8 and machine["partition"] == "haswell"
        assert software["scalapack"]["version_split"] == [2, 1, 0]
        # the spec's compiler is software of its own, unless named
        assert software["gcc"] == {"version_split": [9, 3, 0], "source": "spack"}
        named = _meta(
            keys["user_A"],
            software_configuration={
                "spack": "scalapack@2.1.0%gcc@9.3.0",
                "gcc": {"version_split": [9, 4, 0]},
            },
        )
        assert named.resolve_environment()[1]["gcc"] == {"version_split": [9, 4, 0]}


class TestSpackCompilerClause:
    """The walkthrough's flow (``examples/crowd_repository.py``): records
    described by a Spack spec match a ``gcc`` clause on its compiler."""

    def _share(self, node, keys, demo_problem):
        meta = _meta(
            keys["user_A"],
            sync="yes",
            software_configuration={"spack": "scalapack@2.1.0%gcc@8.3.0"},
        )
        CrowdClient(node, meta).tune(demo_problem, {"t": 0.8}, 8, seed=1)

    def _client_b(self, node, keys, software):
        space = {"software_configurations": software, "user_configurations": ["user_A"]}
        return CrowdClient(node, _meta(keys["user_B"], configuration_space=space))

    def test_a_gcc_clause_selects_the_specs_records_and_transfer_tunes(
        self, node, keys, demo_problem
    ):
        self._share(node, keys, demo_problem)
        gcc8 = [{"gcc": {"version_from": [8, 0, 0], "version_to": [9, 0, 0]}}]
        client = self._client_b(node, keys, gcc8)
        sources = client.query_source_data(demo_problem.parameter_space)
        assert [s.n for s in sources] == [8]
        for clause in ([{"scalapack": {"version_from": [2, 0, 0]}}], []):
            other = self._client_b(node, keys, clause)
            assert len(other.query_function_evaluations()) == 8
        strategy = MultitaskTS()
        with perf.collect() as stats:
            result = client.tune(demo_problem, {"t": 2.5}, 4, strategy=strategy, seed=2)
        assert result.tuner_name == strategy.name
        assert "crowd_tla_fallbacks" not in stats.counters

    def test_a_strategy_without_a_source_is_counted_as_a_fallback(
        self, node, keys, demo_problem
    ):
        self._share(node, keys, demo_problem)
        gcc9 = [{"gcc": {"version_from": [9, 0, 0], "version_to": [10, 0, 0]}}]
        client = self._client_b(node, keys, gcc9)
        assert client.query_function_evaluations() == []
        with perf.collect() as stats:
            result = client.tune(demo_problem, {"t": 2.5}, 3, strategy=MultitaskTS(), seed=2)
        assert result.tuner_name != MultitaskTS().name
        assert stats.counters["crowd_tla_fallbacks"] == 1


class TestCrowdClient:
    def test_bad_key_fails_at_construction(self, node, keys):
        meta = _meta(keys["user_A"])
        meta.api_key = "nope"
        with pytest.raises(AuthError):
            CrowdClient(node, meta)

    def test_query_function_evaluations(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 10)
        client = CrowdClient(node, _meta(keys["user_B"]))
        assert len(client.query_function_evaluations()) == 10

    def test_query_source_data_groups_by_task(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 12, seed=0)
        _upload_source(node, keys["user_A"], demo_problem, {"t": 1.2}, 7, seed=1)
        client = CrowdClient(node, _meta(keys["user_B"]))
        sources = client.query_source_data()
        assert len(sources) == 2
        # sorted by sample count, largest first (stacking order)
        assert sources[0].n == 12 and sources[1].n == 7
        assert sources[0].task == {"t": 0.8}

    def test_min_samples_filter(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 3)
        client = CrowdClient(node, _meta(keys["user_B"]))
        assert client.query_source_data(min_samples=5) == []

    def test_query_surrogate_model_predicts(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 40)
        client = CrowdClient(node, _meta(keys["user_B"]))
        gp = client.query_surrogate_model(task={"t": 0.8})
        x = np.array([[0.5]])
        pred = gp.predict_mean(x)[0]
        true = demo_problem.objective({"t": 0.8}, {"x": 0.5})
        assert pred == pytest.approx(true, abs=0.3)

    def test_query_surrogate_needs_data(self, node, keys):
        client = CrowdClient(node, _meta(keys["user_B"]))
        with pytest.raises(ValueError):
            client.query_surrogate_model()

    def test_query_predict_output(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 40)
        client = CrowdClient(node, _meta(keys["user_B"]))
        preds = client.query_predict_output([{"x": 0.2}, {"x": 0.7}], task={"t": 0.8})
        assert preds.shape == (2,)

    def test_query_sensitivity_analysis(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 60)
        client = CrowdClient(node, _meta(keys["user_B"]))
        report = client.query_sensitivity_analysis(
            task={"t": 0.8}, n_base=128, seed=0
        )
        assert report.indices.names == ["x"]
        # a 1-parameter problem: x explains everything
        assert report.indices.ST[0] > 0.8

    def test_sensitivity_needs_enough_data(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 2)
        client = CrowdClient(node, _meta(keys["user_B"]))
        with pytest.raises(ValueError):
            client.query_sensitivity_analysis()


class TestEndToEndTuning:
    def test_sync_uploads_evaluations(self, node, keys, demo_problem):
        client = CrowdClient(node, _meta(keys["user_B"], sync="yes"))
        client.tune(demo_problem, {"t": 1.0}, 4, seed=0)
        assert node.count() == 4

    def test_no_sync_no_uploads(self, node, keys, demo_problem):
        client = CrowdClient(node, _meta(keys["user_B"], sync="no"))
        client.tune(demo_problem, {"t": 1.0}, 4, seed=0)
        assert node.count() == 0

    def test_transfer_used_when_sources_exist(self, node, keys, demo_problem):
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.8}, 30)
        client = CrowdClient(node, _meta(keys["user_B"]))
        res = client.tune(
            demo_problem, {"t": 1.0}, 4, strategy=MultitaskTS(), seed=0
        )
        assert res.tuner_name == "Multitask (TS)"

    def test_target_task_excluded_from_sources(self, node, keys, demo_problem):
        """Records for the target task itself must not be a TLA source."""
        _upload_source(node, keys["user_A"], demo_problem, {"t": 1.0}, 30)
        client = CrowdClient(node, _meta(keys["user_B"]))
        res = client.tune(
            demo_problem, {"t": 1.0}, 3, strategy=MultitaskTS(), seed=0
        )
        assert res.tuner_name == "NoTLA"  # no *other* task available

    def test_falls_back_to_notla_without_sources(self, node, keys, demo_problem):
        client = CrowdClient(node, _meta(keys["user_B"]))
        res = client.tune(
            demo_problem, {"t": 1.0}, 3, strategy=MultitaskTS(), seed=0
        )
        assert res.tuner_name == "NoTLA"

    def test_crowd_accumulation_improves_later_users(self, node, keys, demo_problem):
        """The crowd story: user B tunes after user A's data exists and
        immediately starts near the transferred optimum."""
        _upload_source(node, keys["user_A"], demo_problem, {"t": 0.9}, 60)
        client = CrowdClient(node, _meta(keys["user_B"], sync="yes"))
        res = client.tune(
            demo_problem, {"t": 1.0}, 5, strategy=MultitaskTS(), seed=0
        )
        notla = CrowdClient(node, _meta(keys["user_B"])).tune(
            demo_problem, {"t": 1.0}, 5, seed=0
        )
        assert res.best_output <= notla.best_output + 0.05
