"""Tests for :class:`repro.fabric.tuner.FabricTuner`.

The load-bearing assertion is sequential parity: one fabric process, no
faults, no latency must reproduce the sequential :class:`Tuner`
trajectory bit-for-bit, across a process boundary and a durable queue.
"""

from __future__ import annotations

import pytest

from repro.core import Tuner, TunerOptions, TuningProblem
from repro.fabric import DurableJobQueue, FabricOptions, FabricTuner
from repro.service import build_service
from repro.tla import StrategyProvider, TransferTuner, get_strategy


def opts(**kw):
    return TunerOptions(n_initial=3, **kw)


class TestSequentialParity:
    def test_one_process_matches_sequential_tuner(self, quadratic_problem):
        task = {"t": 1}
        seq = Tuner(quadratic_problem, opts()).tune(task, 10, seed=42)
        fab = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=1)
        ).tune(task, 10, seed=42)
        assert [e.config for e in fab.history] == [e.config for e in seq.history]
        assert fab.best_so_far() == seq.best_so_far()
        assert [e.output for e in fab.history] == [e.output for e in seq.history]

    @pytest.mark.parametrize("key", ["weighted-sum-dynamic", "stacking"])
    def test_one_process_matches_sequential_transfer_tuner(
        self, key, shifted_quadratics, source_factory
    ):
        """The same composition with a TLA provider, across the process
        boundary: one process replays the sequential TransferTuner."""
        task = {"t": 5}
        src = source_factory(shifted_quadratics, {"t": 0}, 30, seed=0)
        seq = TransferTuner(shifted_quadratics, get_strategy(key), [src]).tune(
            task, 8, seed=42
        )
        tuner = FabricTuner(shifted_quadratics, None, FabricOptions(n_procs=1))
        tuner.provider = StrategyProvider(get_strategy(key), [src])
        fab = tuner.tune(task, 8, seed=42)
        assert fab.tuner_name == "Fabric" + seq.tuner_name
        assert [e.config for e in fab.history] == [e.config for e in seq.history]
        assert [e.output for e in fab.history] == [e.output for e in seq.history]
        assert fab.best_so_far() == seq.best_so_far()


class TestBudgetAndOutcomes:
    def test_budget_respected_multiproc(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=4, batch=2)
        ).tune({"t": 1}, 11, seed=0)
        assert res.n_evaluations == 11

    def test_finds_optimum_with_four_processes(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=4, batch=2)
        ).tune({"t": 1}, 16, seed=3)
        assert res.best_output < 0.12  # true optimum is 0.1 at x=0.37

    def test_worker_kill_does_not_lose_budget(self, quadratic_problem):
        """A worker crash mid-run re-dispatches its job; the run still
        delivers exactly n_samples evaluations, one marked retried."""
        fault = lambda job_id, attempt: job_id == 2 and attempt == 0  # noqa: E731
        tuner = FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=2, base_latency_s=0.02),
            fault=fault,
        )
        res = tuner.tune({"t": 1}, 8, seed=0)
        assert res.n_evaluations == 8
        assert tuner._last_redispatches == 1
        assert any(e.metadata.get("attempts", 1) > 1 for e in res.history)
        assert all(not e.failed for e in res.history)

    def test_evaluation_metadata_records_worker(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=2)
        ).tune({"t": 1}, 6, seed=0)
        for e in res.history:
            assert "worker" in e.metadata
            assert e.metadata["attempts"] >= 1

    def test_worker_perf_counters_in_result(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=2)
        ).tune({"t": 1}, 6, seed=0)
        # evaluations ran in worker processes; their counters must have
        # folded into the parent's TuningResult.perf snapshot
        assert res.perf["counters"]["fabric_evaluations"] == 6
        assert res.perf["timers"]["evaluate"]["count"] == 6
        gauges = res.perf["gauges"]
        assert "fabric_worker_utilization" in gauges
        assert "fabric_wall_s" in gauges

    def test_durable_queue_records_the_run(self, quadratic_problem, tmp_path):
        res = FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=2, data_dir=tmp_path),
        ).tune({"t": 1}, 6, seed=0)
        assert res.n_evaluations == 6
        queue = DurableJobQueue(tmp_path)
        assert queue.n_done == 6
        assert queue.n_pending == 0
        queue.close()

    def test_invalid_inputs(self, quadratic_problem):
        with pytest.raises(ValueError):
            FabricOptions(n_procs=0)
        with pytest.raises(ValueError):
            FabricOptions(lease_s=0.0)
        with pytest.raises(ValueError):
            FabricTuner(quadratic_problem).tune({"t": 1}, 0)
        with pytest.raises(ValueError):
            FabricTuner(quadratic_problem, crowd=object())  # no api_key
        with pytest.raises(ValueError):
            FabricTuner(quadratic_problem, consult=True)  # no endpoint


class TestCrowdIntegration:
    def test_streams_every_evaluation_to_the_service(self, quadratic_problem):
        with build_service(2) as svc:
            _, key = svc.register_user("fabric-w0", "w0@crowd.io")
            tuner = FabricTuner(
                quadratic_problem,
                opts(),
                FabricOptions(n_procs=2),
                crowd=svc.client,
                api_key=key,
                machine_configuration={"machine": "testbox"},
            )
            res = tuner.tune({"t": 1}, 8, seed=0)
            assert res.perf["counters"]["crowd_uploads"] == 8
            assert "crowd_upload_errors" not in res.perf["counters"]
            records = svc.client.handle(
                {
                    "route": "query",
                    "api_key": key,
                    "problem_name": quadratic_problem.name,
                }
            )["records"]
            assert len(records) == 8
            assert sorted(r["output"] for r in records) == sorted(
                e.output for e in res.history
            )
            # fabric bookkeeping rides along in the machine configuration
            assert all("worker" in r["machine_configuration"] for r in records)

    def test_a_non_finite_result_is_stored_as_a_failure(self, quadratic_problem):
        """An ``inf`` objective is a failed evaluation, stored in the crowd
        as a failed record (null output), not refused."""

        def objective(task, cfg):
            return float("inf") if cfg["x"] > 0.5 else (cfg["x"] - 0.37) ** 2

        q = quadratic_problem
        problem = TuningProblem(
            "cliff", q.input_space, q.parameter_space, q.output_space, objective
        )
        with build_service(2) as svc:
            _, key = svc.register_user("fabric-w0", "w0@crowd.io")
            tuner = FabricTuner(
                problem, opts(), FabricOptions(n_procs=1), crowd=svc.client, api_key=key
            )
            res = tuner.tune({"t": 1}, 6, seed=0)
            assert any(e.failed for e in res.history)
            assert res.perf["counters"]["crowd_uploads"] == 6
            assert "crowd_upload_errors" not in res.perf["counters"]
            query = {"route": "query", "api_key": key, "require_success": False}
            records = svc.client.handle(query)["records"]
            assert sorted(r["output"] is None for r in records) == sorted(
                e.failed for e in res.history
            )

    def test_consult_seeds_surrogate_without_spending_budget(
        self, quadratic_problem
    ):
        with build_service(2) as svc:
            _, key = svc.register_user("seeder", "s@crowd.io")
            # a first run populates the crowd database for the task
            FabricTuner(
                quadratic_problem,
                opts(),
                FabricOptions(n_procs=1),
                crowd=svc.client,
                api_key=key,
            ).tune({"t": 1}, 6, seed=1)
            # a second run consults: 6 crowd records seed the history,
            # the new budget is spent on top of them
            res = FabricTuner(
                quadratic_problem,
                opts(),
                FabricOptions(n_procs=1),
                crowd=svc.client,
                api_key=key,
                consult=True,
            ).tune({"t": 1}, 4, seed=2)
            assert res.n_evaluations == 10  # 6 seeded + 4 new
            seeded = [e for e in res.history if e.metadata.get("crowd_seed")]
            assert len(seeded) == 6
            assert res.perf["counters"]["fabric_consulted_records"] == 6

    def test_consult_skips_records_that_do_not_fit_the_space(self, quadratic_problem):
        """An out-of-range or wrong-typed crowd value must cost the run one
        skipped record, not a SpaceError/TypeError on the first model fit."""

        class CannedCrowd:
            def __init__(self, configs_outputs):
                self.records = [
                    {"uid": i, "timestamp": float(i), "tuning_parameters": c, "output": y}
                    for i, (c, y) in enumerate(configs_outputs)
                ]

            def handle(self, request):
                if request["route"] == "query":
                    return {"ok": True, "records": self.records}
                return {"ok": True, "uid": "u"}

        crowd = CannedCrowd([({"x": 0.5}, 0.1169), ({"x": 7.0}, 0.2), ({"x": "fast"}, 0.3)])
        res = FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=1),
            crowd=crowd,
            api_key="k",
            consult=True,
        ).tune({"t": 1}, 4, seed=0)
        assert res.n_evaluations == 5  # the good record + 4 new
        seeded = [e for e in res.history if e.metadata.get("crowd_seed")]
        assert [e.config for e in seeded] == [{"x": 0.5}]
        assert res.perf["counters"]["fabric_consulted_records"] == 1
        assert res.perf["counters"]["fabric_consult_skipped"] == 2

        # a non-numeric output is the same kind of record
        crowd = CannedCrowd([({"x": 0.5}, "n/a"), ({"x": 0.6}, "0.25"), ({"x": 0.7}, None)])
        hist = FabricTuner(
            quadratic_problem, crowd=crowd, api_key="k"
        ).consult_crowd({"t": 1})
        assert [(e.config["x"], e.output) for e in hist] == [(0.6, 0.25), (0.7, None)]

    def test_consult_empty_crowd_is_a_fresh_run(self, quadratic_problem):
        with build_service(1) as svc:
            _, key = svc.register_user("lone", "l@crowd.io")
            res = FabricTuner(
                quadratic_problem,
                opts(),
                FabricOptions(n_procs=1),
                crowd=svc.client,
                api_key=key,
                consult=True,
            ).tune({"t": 1}, 5, seed=0)
            assert res.n_evaluations == 5

    def test_on_progress_hook_sees_every_completion(self, quadratic_problem):
        seen = []
        FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=2),
            on_progress=lambda done, coord: seen.append(done),
        ).tune({"t": 1}, 6, seed=0)
        assert seen == list(range(1, 7))
