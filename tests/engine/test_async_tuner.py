"""Tests for the asynchronous tuning event loop."""

from __future__ import annotations

import pytest

from repro.core import Tuner, TunerOptions
from repro.core.history import History
from repro.crowd.server import CrowdServer
from repro.engine import AsyncTuner, CrowdStreamer, EngineOptions
from repro.hpc import SlurmSim, cori_haswell
from repro.tla import StrategyProvider, TransferTuner, WeightedSumStatic, get_strategy


def opts(**kw):
    return TunerOptions(n_initial=3, **kw)


class TestSequentialParity:
    def test_one_worker_matches_sequential_tuner(self, quadratic_problem):
        """With one worker and no latency/faults the engine degenerates to
        the sequential loop and must reproduce it bit-for-bit."""
        task = {"t": 1}
        seq = Tuner(quadratic_problem, opts()).tune(task, 10, seed=42)
        asy = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=1)
        ).tune(task, 10, seed=42)
        assert [e.config for e in asy.history] == [e.config for e in seq.history]
        assert asy.best_so_far() == seq.best_so_far()

    @pytest.mark.parametrize("key", ["weighted-sum-dynamic", "stacking"])
    def test_one_worker_matches_sequential_transfer_tuner(
        self, key, shifted_quadratics, source_factory
    ):
        """The same composition with a TLA provider: one worker replays the
        sequential TransferTuner bit-for-bit."""
        task = {"t": 5}
        src = source_factory(shifted_quadratics, {"t": 0}, 30, seed=0)
        seq = TransferTuner(shifted_quadratics, get_strategy(key), [src]).tune(
            task, 8, seed=42
        )
        tuner = AsyncTuner(shifted_quadratics, None, EngineOptions(n_workers=1))
        tuner.provider = StrategyProvider(get_strategy(key), [src])
        asy = tuner.tune(task, 8, seed=42)
        assert asy.tuner_name == "Async" + seq.tuner_name
        assert [e.config for e in asy.history] == [e.config for e in seq.history]
        assert [e.output for e in asy.history] == [e.output for e in seq.history]
        assert asy.best_so_far() == seq.best_so_far()

    def test_each_result_notified_once_with_its_own_point(
        self, shifted_quadratics, source_factory
    ):
        """Four workers, batches of two: several proposals are always in
        flight, so "last proposal" bookkeeping would pair results with the
        wrong x."""

        class Recording(WeightedSumStatic):
            def __init__(self):
                super().__init__()
                self.proposed, self.results = [], []

            def notify_proposal(self, x_unit, rng):
                self.proposed.append(float(x_unit[0]))

            def notify_result(self, x_unit, y):
                self.results.append((float(x_unit[0]), y))

        task = {"t": 5}
        src = source_factory(shifted_quadratics, {"t": 0}, 30, seed=0)
        strategy = Recording()
        tuner = AsyncTuner(
            shifted_quadratics,
            None,
            EngineOptions(n_workers=4, batch=2, base_latency_s=0.01),
        )
        tuner.provider = StrategyProvider(strategy, [src])
        res = tuner.tune(task, 12, seed=3)
        assert len(strategy.results) == 12
        assert sorted(x for x, _ in strategy.results) == sorted(strategy.proposed)
        # the parameter space is x in [0, 1], so the unit point is x itself
        assert strategy.results == [(e.config["x"], e.output) for e in res.history]


class TestBudgetAndProgress:
    def test_budget_respected(self, quadratic_problem):
        res = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=4, batch=2)
        ).tune({"t": 1}, 11, seed=0)
        assert res.n_evaluations == 11

    def test_finds_optimum_with_four_workers(self, quadratic_problem):
        res = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=4, batch=2)
        ).tune({"t": 1}, 16, seed=3)
        assert res.best_output < 0.12  # true optimum is 0.1 at x=0.37

    def test_distinct_configs_within_run(self, quadratic_problem):
        res = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=4, batch=4)
        ).tune({"t": 1}, 12, seed=5)
        xs = [round(e.config["x"], 12) for e in res.history]
        assert len(set(xs)) == len(xs)

    def test_continuation_history_feeds_model_not_budget(self, quadratic_problem):
        tuner = AsyncTuner(quadratic_problem, opts(), EngineOptions(n_workers=2))
        first = tuner.tune({"t": 1}, 6, seed=1)
        cont = tuner.tune({"t": 1}, 4, seed=2, history=first.history)
        assert cont.history is first.history
        assert cont.n_evaluations == 10  # 6 carried over + 4 new

    def test_invalid_options(self, quadratic_problem):
        with pytest.raises(ValueError):
            EngineOptions(n_workers=0)
        with pytest.raises(ValueError):
            EngineOptions(batch=0)
        with pytest.raises(ValueError):
            EngineOptions(lie="nope")
        with pytest.raises(ValueError):
            AsyncTuner(quadratic_problem).tune({"t": 1}, 0)


class TestLatencyOverlap:
    def test_parallel_workers_overlap_evaluations(self, quadratic_problem):
        import time

        eng = dict(base_latency_s=0.05)
        t0 = time.perf_counter()
        AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=1, **eng)
        ).tune({"t": 1}, 8, seed=0)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=4, batch=2, **eng)
        ).tune({"t": 1}, 8, seed=0)
        parallel = time.perf_counter() - t0
        assert parallel < serial

    def test_perf_gauges_present(self, quadratic_problem):
        res = AsyncTuner(
            quadratic_problem,
            opts(),
            EngineOptions(n_workers=2, base_latency_s=0.01),
        ).tune({"t": 1}, 6, seed=0)
        gauges = res.perf["gauges"]
        assert "engine_worker_utilization" in gauges
        assert "engine_pending_fantasies" in gauges
        assert 0.0 < gauges["engine_worker_utilization"]["max"] <= 1.0


class TestSlurmBackedRun:
    def test_run_with_scheduler_releases_nodes(self, quadratic_problem):
        sim = SlurmSim(cori_haswell(8))
        res = AsyncTuner(
            quadratic_problem,
            opts(),
            EngineOptions(n_workers=4, nodes_per_worker=2),
            scheduler=sim,
        ).tune({"t": 1}, 6, seed=0)
        assert sim.free_nodes == 8
        assert all("nodelist" in e.metadata for e in res.history)


class TestCrowdStreaming:
    def test_every_evaluation_uploaded_as_it_lands(self, quadratic_problem):
        server = CrowdServer()
        key = server.handle(
            {"route": "register", "username": "worker0", "email": "w0@crowd.io"}
        )["api_key"]
        streamer = CrowdStreamer(
            server,
            key,
            quadratic_problem.name,
            machine_configuration={"machine": "cori"},
        )
        res = AsyncTuner(
            quadratic_problem,
            opts(),
            EngineOptions(n_workers=2, batch=2),
            callbacks=[streamer],
        ).tune({"t": 1}, 8, seed=0)
        assert streamer.n_uploaded == 8
        assert not streamer.errors
        records = server.handle(
            {
                "route": "query",
                "api_key": key,
                "problem_name": quadratic_problem.name,
            }
        )["records"]
        assert len(records) == 8
        uploaded_outputs = sorted(r["output"] for r in records)
        assert uploaded_outputs == sorted(e.output for e in res.history)
        # engine bookkeeping rides along in the machine configuration
        assert all("worker" in r["machine_configuration"] for r in records)

    def test_bad_key_counts_errors_but_does_not_kill_tuning(self, quadratic_problem):
        streamer = CrowdStreamer(CrowdServer(), "bogus", quadratic_problem.name)
        res = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=2), callbacks=[streamer]
        ).tune({"t": 1}, 5, seed=0)
        assert res.n_evaluations == 5
        assert streamer.n_uploaded == 0
        assert len(streamer.errors) == 5


class TestHistoryContinuesSequentialRun:
    def test_async_continues_sequential_history(self, quadratic_problem):
        seq = Tuner(quadratic_problem, opts()).tune({"t": 1}, 5, seed=7)
        cont = AsyncTuner(
            quadratic_problem, opts(), EngineOptions(n_workers=2)
        ).tune({"t": 1}, 5, seed=8, history=seq.history)
        assert isinstance(cont.history, History)
        assert cont.n_evaluations == 10
