"""TLA-pool determinism and exactness pins.

The pool has one path: every member is called through its own
``predict``, target-side GPs are kept by a refit cadence, and each source
is fitted once per prepare.  These tests pin the contracts:

* fixed-seed runs are bit-identical across repeats,
* every strategy's surrogate equals, bit for bit, the paper's formulas
  written over the textbook GP predictor (:mod:`tests.tla.oracles`),
* an ensemble fits each source once and hands the fitted GPs to the
  members that would have fitted them the same way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TaskData, perf
from repro.core.kernels import kernel_name
from repro.tla import (
    STRATEGY_REGISTRY,
    EnsembleProposed,
    Stacking,
    TransferTuner,
    WeightedSumDynamic,
    WeightedSumStatic,
    get_strategy,
)
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

    @pytest.mark.parametrize("key", sorted(STRATEGY_REGISTRY))
    def test_strategy_surrogate_equals_oracle(self, key, shifted_quadratics, source_factory):
        """Every pool entry, at every stage of a short run: empty target
        (the equal-weight start), then a growing history with notifications."""
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 3, 6))
        strategy = get_strategy(key, refit_every=2)
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
    """Acceptance pin: an ensemble prepare fits each source once (it used
    to be 1 + pool-size = 4x) and its members predict from the shell's
    fitted GPs, unless a member fits sources another way."""

    def test_default_prepare_fits_each_source_once(self, shifted_quadratics, source_factory):
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 1))
        strat = get_strategy("ensemble-proposed")
        with perf.collect() as stats:
            strat.prepare(sources, np.random.default_rng(0))
        counters = stats.snapshot()["counters"]
        assert counters["tla_source_fits"] == len(sources)
        assert not [name for name in counters if name.endswith("_cache_hits")]
        for member in strat.pool:
            assert member.prepared
            pairs = zip(member.source_gps, strat.source_gps, strict=True)
            assert all(a is b for a, b in pairs)

    def test_member_with_other_fit_settings_fits_its_own(
        self, shifted_quadratics, source_factory
    ):
        sources = _source_set(shifted_quadratics, source_factory, tasks=(0, 1))
        other_kernel = WeightedSumDynamic(kernel="matern52")
        other_budget = Stacking(gp_max_fun=40)
        same = WeightedSumStatic()
        strat = EnsembleProposed(pool=[other_kernel, other_budget, same])
        with perf.collect() as stats:
            strat.prepare(sources, np.random.default_rng(0))
        assert stats.snapshot()["counters"]["tla_source_fits"] == 3 * len(sources)
        for member in (other_kernel, other_budget):
            assert not any(a is b for a, b in zip(member.source_gps, strat.source_gps))
            assert len(member.source_gps) == len(sources)
        assert kernel_name(other_kernel.source_gps[0].kernel) == "matern52"
        assert other_budget.source_gps[0].max_fun == 40
        assert all(a is b for a, b in zip(same.source_gps, strat.source_gps, strict=True))

    def test_store_run_converges(self, shifted_quadratics, source_factory):
        src = source_factory(shifted_quadratics, {"t": 4}, 25, seed=0)
        _, best = _trajectory(shifted_quadratics, "ensemble-proposed", [src], n=6)
        assert best[-1] < 0.15
