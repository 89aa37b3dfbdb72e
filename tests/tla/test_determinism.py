"""TLA-pool determinism and exactness pins.

The pool has one path: every member is called through its own
``predict``, target-side GPs are kept by a refit cadence, and a shared
store only decides where a fitted source GP comes from.  These tests pin
the contracts:

* fixed-seed runs are bit-identical across repeats,
* every strategy's surrogate equals, bit for bit, the paper's formulas
  written over the textbook GP predictor (:mod:`tests.tla.oracles`),
  with and without a store,
* a store leaves the trajectory of every strategy whose fits cannot hit
  exactly unchanged, Stacking included (the store keys a fit by its
  counter, so the first stack entry never hits the base class's fit of
  the same source),
* sharing a store across an ensemble's members collapses source fitting
  from (1 + pool-size)x to 1x.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IntegerParameter,
    OutputParameter,
    RealParameter,
    Space,
    TaskData,
    TuningProblem,
    perf,
)
from repro.tla import STRATEGY_REGISTRY, SourceModelStore, TransferTuner, get_strategy
from repro.tla.base import combine_weighted, fit_source_gps

from . import oracles

NON_ENSEMBLE = [
    "multitask-ps",
    "multitask-ts",
    "weighted-sum-equal",
    "weighted-sum-dynamic",
    "stacking",
]


def _trajectory(problem, key, sources, seed=3, n=5, **strategy_kwargs):
    strat = get_strategy(key, **strategy_kwargs)
    res = TransferTuner(problem, strat, sources).tune({"t": 5}, n, seed=seed)
    xs = [e.config["x"] for e in res.history.evaluations]
    return xs, res.best_so_far()


@pytest.mark.parametrize("key", NON_ENSEMBLE + ["ensemble-proposed"])
class TestDefaultsBitIdentical:
    """Pinned: fixed-seed runs are exactly reproducible."""

    def test_repeat_runs_identical(self, key, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        xs1, best1 = _trajectory(shifted_quadratics, key, [src])
        xs2, best2 = _trajectory(shifted_quadratics, key, [src])
        assert xs1 == xs2
        assert best1 == best2


def _source_set(problem, source_factory, tasks=(0, 2, 4, 6), n=20):
    return [
        source_factory(problem, {"t": t}, n + t, seed=t, label=f"t{t}") for t in tasks
    ]


class TestBatchedCombineEquivalence:
    """Acceptance pin: the pool equals the one-model-at-a-time oracle."""

    def test_frozen_path_matches_loop(self, rng, shifted_quadratics, source_factory):
        gps = fit_source_gps(_source_set(shifted_quadratics, source_factory), rng)
        w = np.array([1.0, 2.0, 0.5, 1.5])
        Xq = np.random.default_rng(9).random((64, 1))
        mu, sd = combine_weighted([gp.predict for gp in gps], w)(Xq)
        mu_ref, sd_ref = oracles.weighted_sum(gps, w, Xq)
        assert np.array_equal(mu, mu_ref) and np.array_equal(sd, sd_ref)

    @pytest.mark.parametrize("shared_store", [False, True], ids=["no-store", "store"])
    @pytest.mark.parametrize("key", sorted(STRATEGY_REGISTRY))
    def test_strategy_surrogate_equals_oracle(
        self, key, shared_store, shifted_quadratics, source_factory
    ):
        """Every pool entry, at every stage of a short run: empty target
        (the equal-weight start), then a growing history with notifications."""
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 3, 6))
        store = SourceModelStore() if shared_store else None
        if store is not None:  # someone else already fitted these sources
            get_strategy("weighted-sum-equal", store=store).prepare(
                sources, np.random.default_rng(5)
            )
        strategy = get_strategy(key, store=store, refit_every=2)
        rng = np.random.default_rng(1)
        strategy.prepare(sources, rng)
        batches = np.random.default_rng(2)
        xs = np.random.default_rng(3).random((5, 1))
        ys = (xs[:, 0] - 0.4) ** 2 + 0.05
        for n in range(len(xs) + 1):
            target = TaskData({"t": 5}, xs[:n], ys[:n])
            predict = strategy.model(target, rng)
            for rows in (1, 7, 40):
                Xq = batches.random((rows, 1))
                mu, sd = predict(Xq)
                mu_ref, sd_ref = oracles.strategy_surrogate(strategy, target, Xq)
                assert np.array_equal(mu, mu_ref), (key, n, rows)
                assert np.array_equal(sd, sd_ref), (key, n, rows)
            if n < len(xs):
                strategy.notify_proposal(xs[n], rng)
                strategy.notify_result(xs[n], float(ys[n]))

    def test_batched_counter_increments(self, rng, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 1}, 20, seed=1)
        gps = fit_source_gps([src], rng)
        fast = combine_weighted([gps[0].predict], np.ones(1))
        with perf.collect() as stats:
            fast(np.random.default_rng(0).random((4, 1)))
        assert stats.snapshot()["counters"]["tla_batched_predicts"] == 1

    def test_non_gp_members_still_work(self):
        # a pool member is anything with a predict(X) -> (mean, std)
        class Constant:
            def predict(self, X):
                return np.full(X.shape[0], 2.0), np.ones(X.shape[0])

        mu, sd = combine_weighted([Constant().predict], np.ones(1))(np.zeros((3, 1)))
        assert np.allclose(mu, 2.0) and np.allclose(sd, 1.0)


@pytest.mark.parametrize("key", NON_ENSEMBLE)
class TestStoreWithinNoise:
    """A store only changes where fitted GPs come from: a strategy alone
    with a fresh store fits nothing twice, so nothing can hit the cache
    and its trajectory is exactly the store-off one — whatever the BLAS
    thread count (Stacking's first stack entry is its own fit of the
    largest source in both modes, not a hit on the base class's)."""

    def test_store_on_matches_store_off(self, key, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        xs_off, best_off = _trajectory(shifted_quadratics, key, [src])
        xs_on, best_on = _trajectory(
            shifted_quadratics, key, [src], store=SourceModelStore()
        )
        assert xs_on == xs_off
        assert best_on == best_off


def test_stacking_shares_its_stack_only_with_a_repeat(shifted_quadratics, source_factory):
    sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 3, 6))
    store = SourceModelStore()
    first, repeat = get_strategy("stacking", store=store), get_strategy("stacking", store=store)
    with perf.collect() as stats:
        first.prepare(sources, np.random.default_rng(0))
    counters = stats.snapshot()["counters"]
    assert counters["tla_source_fits"] == counters["tla_stack_fits"] == len(sources)
    assert "tla_stack_cache_hits" not in counters
    with perf.collect() as stats:
        repeat.prepare(sources, np.random.default_rng(0))
    counters = stats.snapshot()["counters"]
    assert counters["tla_stack_cache_hits"] == len(sources)
    assert "tla_stack_fits" not in counters
    assert all(a is b for a, b in zip(first._stack, repeat._stack))


def test_store_leaves_a_2d_dynamic_weights_run_unchanged(source_factory):
    """A row's prediction depends on the batch it is predicted in, so a
    store that recomposed batches from memoized rows moved this run's
    proposals (by 8e-2, until the memo was deleted); on the 1-D fixture
    above the effect happened not to surface."""
    problem = TuningProblem(
        name="shifted-bowl",
        input_space=Space([IntegerParameter("t", 0, 10)]),
        parameter_space=Space([RealParameter("x", 0.0, 1.0), RealParameter("z", 0.0, 1.0)]),
        output_space=Space([OutputParameter("y")]),
        objective=lambda task, cfg: (cfg["x"] - 0.3 - 0.02 * task["t"]) ** 2
        + (cfg["z"] - 0.6) ** 2 * (1 + 0.1 * task["t"])
        + 0.05,
    )
    sources = [source_factory(problem, {"t": t}, 40, seed=t) for t in (2, 4, 6)]

    def run(store):
        strategy = get_strategy("weighted-sum-dynamic", store=store)
        res = TransferTuner(problem, strategy, sources).tune({"t": 5}, 12, seed=3)
        return [e.config for e in res.history.evaluations]

    assert run(SourceModelStore()) == run(None)


class TestIncrementalRefits:
    def test_refit_every_counter_and_quality(
        self, shifted_quadratics, source_factory
    ):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        with perf.collect() as stats:
            _, best = _trajectory(
                shifted_quadratics,
                "weighted-sum-dynamic",
                [src],
                n=8,
                refit_every=3,
                store=SourceModelStore(),
            )
        counters = stats.snapshot()["counters"]
        assert counters.get("tla_incremental_refits", 0) > 0
        assert best[-1] < 0.15  # still converges near the optimum

    def test_stacking_incremental_residuals(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        with perf.collect() as stats:
            _, best = _trajectory(
                shifted_quadratics,
                "stacking",
                [src],
                n=8,
                refit_every=4,
            )
        counters = stats.snapshot()["counters"]
        assert counters.get("tla_incremental_refits", 0) > 0
        assert best[-1] < 0.15


class TestEnsembleSourceFitSharing:
    """Acceptance pin: 1x source fits per ensemble prepare with the store
    (vs 1 + pool-size = 4x without)."""

    def test_without_store_refits_per_member(
        self, shifted_quadratics, source_factory
    ):
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 1))
        strat = get_strategy("ensemble-proposed")
        with perf.collect() as stats:
            strat.prepare(sources, np.random.default_rng(0))
        counters = stats.snapshot()["counters"]
        # shell + 3 members each fit every source from scratch
        assert counters["tla_source_fits"] == 4 * len(sources)
        assert "tla_source_cache_hits" not in counters

    def test_with_store_fits_once(self, shifted_quadratics, source_factory):
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 1))
        strat = get_strategy("ensemble-proposed", store=SourceModelStore())
        with perf.collect() as stats:
            strat.prepare(sources, np.random.default_rng(0))
        counters = stats.snapshot()["counters"]
        assert counters["tla_source_fits"] == len(sources)
        assert counters["tla_source_cache_hits"] == 3 * len(sources)

    def test_one_store_serves_a_strategy_sweep(
        self, shifted_quadratics, source_factory
    ):
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 1))
        store = SourceModelStore()
        rng = np.random.default_rng(0)
        with perf.collect() as stats:
            for key in ("weighted-sum-dynamic", "stacking", "multitask-ts"):
                get_strategy(key, store=store).prepare(sources, rng)
        counters = stats.snapshot()["counters"]
        assert counters["tla_source_fits"] == len(sources)
        assert counters["tla_source_cache_hits"] == 2 * len(sources)

    def test_store_run_converges(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        _, best = _trajectory(
            shifted_quadratics,
            "ensemble-proposed",
            [src],
            n=6,
            store=SourceModelStore(),
        )
        assert best[-1] < 0.15
