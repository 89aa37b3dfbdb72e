"""The asynchronous tuning loop: several evaluations in flight at once.

Every parallel run goes through :class:`~repro.fabric.tuner.FabricTuner`
(the one loop over the process fabric).  Its 1-process parity with the
sequential tuners, its budget and its crowd streaming through the
service are pinned in ``tests/fabric/test_fabric_tuner.py``; these are
the loop's other asynchronous behaviours.
"""

from __future__ import annotations

import pytest

from repro.core import Tuner, TunerOptions
from repro.core.history import History
from repro.fabric import FabricOptions, FabricTuner
from repro.service import CrowdShard
from repro.tla import StrategyProvider, WeightedSumStatic


def opts(**kw):
    return TunerOptions(n_initial=3, **kw)


class TestSequentialParity:
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
        tuner = FabricTuner(
            shifted_quadratics,
            None,
            FabricOptions(n_procs=4, batch=2, base_latency_s=0.01),
        )
        tuner.provider = StrategyProvider(strategy, [src])
        res = tuner.tune(task, 12, seed=3)
        assert len(strategy.results) == 12
        assert sorted(x for x, _ in strategy.results) == sorted(strategy.proposed)
        # the parameter space is x in [0, 1], so the unit point is x itself
        assert strategy.results == [(e.config["x"], e.output) for e in res.history]


class TestBudgetAndProgress:
    def test_distinct_configs_within_run(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=4, batch=4)
        ).tune({"t": 1}, 12, seed=5)
        xs = [round(e.config["x"], 12) for e in res.history]
        assert len(set(xs)) == len(xs)

    def test_continuation_history_feeds_model_not_budget(self, quadratic_problem):
        tuner = FabricTuner(quadratic_problem, opts(), FabricOptions(n_procs=2))
        first = tuner.tune({"t": 1}, 6, seed=1)
        cont = tuner.tune({"t": 1}, 4, seed=2, history=first.history)
        assert cont.history is first.history
        assert cont.n_evaluations == 10  # 6 carried over + 4 new

    def test_invalid_options(self, quadratic_problem):
        with pytest.raises(ValueError):
            FabricOptions(n_procs=0)
        with pytest.raises(ValueError):
            FabricOptions(batch=0)
        with pytest.raises(ValueError):
            FabricOptions(lie="nope")
        with pytest.raises(ValueError):
            FabricTuner(quadratic_problem).tune({"t": 1}, 0)


class TestLatencyOverlap:
    def test_parallel_workers_overlap_evaluations(self, quadratic_problem):
        import time

        fab = dict(base_latency_s=0.05)
        t0 = time.perf_counter()
        FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=1, **fab)
        ).tune({"t": 1}, 8, seed=0)
        serial = time.perf_counter() - t0
        t0 = time.perf_counter()
        FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=4, batch=2, **fab)
        ).tune({"t": 1}, 8, seed=0)
        parallel = time.perf_counter() - t0
        assert parallel < serial

    def test_perf_gauges_present(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=2, base_latency_s=0.01),
        ).tune({"t": 1}, 6, seed=0)
        gauges = res.perf["gauges"]
        assert "fabric_worker_utilization" in gauges
        assert 0.0 < gauges["fabric_worker_utilization"]["max"] <= 1.0


class TestCrowdStreaming:
    def test_bad_key_counts_errors_but_does_not_kill_tuning(self, quadratic_problem):
        res = FabricTuner(
            quadratic_problem,
            opts(),
            FabricOptions(n_procs=2),
            crowd=CrowdShard("node"),
            api_key="bogus",
        ).tune({"t": 1}, 5, seed=0)
        assert res.n_evaluations == 5
        assert "crowd_uploads" not in res.perf["counters"]
        assert res.perf["counters"]["crowd_upload_errors"] == 5


class TestHistoryContinuesSequentialRun:
    def test_async_continues_sequential_history(self, quadratic_problem):
        seq = Tuner(quadratic_problem, opts()).tune({"t": 1}, 5, seed=7)
        cont = FabricTuner(
            quadratic_problem, opts(), FabricOptions(n_procs=2)
        ).tune({"t": 1}, 5, seed=8, history=seq.history)
        assert isinstance(cont.history, History)
        assert cont.n_evaluations == 10
