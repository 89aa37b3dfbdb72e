"""Tests for repro.tla.store (the fitted-model cache)."""

from __future__ import annotations

import pickle

import numpy as np

from repro.core import perf
from repro.tla import SourceModelStore


def _data(seed=0, n=30, d=2):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    return X, y


class TestModelCache:
    def test_same_content_hits(self):
        store = SourceModelStore()
        X, y = _data()
        with perf.collect() as stats:
            gp1 = store.fit_gp(X, y, seed=1)
            gp2 = store.fit_gp(X.copy(), y.copy(), seed=2)  # same content
        assert gp2 is gp1
        snap = stats.snapshot()["counters"]
        assert snap["tla_source_fits"] == 1
        assert snap["tla_source_cache_hits"] == 1

    def test_different_content_misses(self):
        store = SourceModelStore()
        X, y = _data(0)
        X2, y2 = _data(1)
        gp1 = store.fit_gp(X, y, seed=1)
        gp2 = store.fit_gp(X2, y2, seed=1)
        assert gp2 is not gp1
        assert len(store) == 2

    def test_kernel_and_max_fun_key(self):
        store = SourceModelStore()
        X, y = _data()
        gp1 = store.fit_gp(X, y, seed=1, kernel="rbf")
        gp2 = store.fit_gp(X, y, seed=1, kernel="matern52")
        gp3 = store.fit_gp(X, y, seed=1, kernel="rbf", max_fun=40)
        assert gp1 is not gp2 and gp1 is not gp3

    def test_counter_namespacing(self):
        store = SourceModelStore()
        X, y = _data()
        with perf.collect() as stats:
            store.fit_gp(X, y, seed=1, counter="stack")
            store.fit_gp(X, y, seed=2, counter="stack")
        snap = stats.snapshot()["counters"]
        assert snap["tla_stack_fits"] == 1
        assert snap["tla_stack_cache_hits"] == 1
        assert "tla_source_fits" not in snap

    def test_counter_keys_the_fit(self):
        """The same data asked for under another counter is another fit,
        from its own seed (Stacking's raw first stack entry vs. the base
        class's source fit of the same source)."""
        store = SourceModelStore()
        X, y = _data()
        source = store.fit_gp(X, y, seed=1)
        stack = store.fit_gp(X, y, seed=2, counter="stack")
        assert stack is not source
        assert store.fit_gp(X, y, seed=3, counter="stack") is stack
        assert len(store) == 2

    def test_lru_eviction(self):
        store = SourceModelStore(max_models=2)
        for s in range(3):
            X, y = _data(s)
            store.fit_gp(X, y, seed=s)
        assert len(store) == 2

    def test_pickle_roundtrip(self):
        store = SourceModelStore()
        X, y = _data()
        gp = store.fit_gp(X, y, seed=1)
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone) == 1
        with perf.collect() as stats:
            shipped = clone.fit_gp(X, y, seed=2)
        assert stats.snapshot()["counters"]["tla_source_cache_hits"] == 1
        # the fit state (train-side cache included) ships with the model
        Xq = np.random.default_rng(5).random((16, 2))
        for a, b in zip(gp.predict(Xq), shipped.predict(Xq)):
            assert np.array_equal(a, b)


class TestSeedBurning:
    def test_cache_hit_burns_seed(self):
        """Stream position must not depend on hit/miss (determinism)."""
        X, y = _data()

        def run(store):
            rng = np.random.default_rng(99)
            seeds = []
            for _ in range(3):
                s = int(rng.integers(0, 2**31 - 1))
                seeds.append(s)
                store.fit_gp(X, y, s)
            return seeds, float(rng.random())

        warm = SourceModelStore()
        warm.fit_gp(X, y, seed=0)  # pre-populate: all three calls hit
        seeds_cold, tail_cold = run(SourceModelStore())
        seeds_warm, tail_warm = run(warm)
        assert seeds_cold == seeds_warm
        assert tail_cold == tail_warm
