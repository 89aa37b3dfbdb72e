"""Tests for repro.core.fit: the multi-start MLE driver and the refit cadence.

The driver is tested on plain quadratics (its policy — starts, order,
winner, sentinel — does not depend on what is minimized); the cadence on
a stub model that records what was done to it.  The cadence driven
through its three TLA users is ``tests/tla/test_base.py::TestRefitCadence``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import GaussianProcess, History, RealParameter, Space, TunerOptions, perf
from repro.core import fit as fit_mod
from repro.core import gp as gp_mod
from repro.core.fit import NLL_FAIL, RefitCadence, grow_gp, multistart_mle
from repro.core.problem import Evaluation
from repro.core.tuner import GPProvider

BOUNDS = [(-2.0, 3.0), (np.log(1e-3), np.log(10.0)), (0.5, 0.75)]


def _bowl(center):
    center = np.asarray(center, dtype=float)

    def fun(theta):
        diff = theta - center
        return float(diff @ diff), 2.0 * diff

    return fun


def _spy_starts(monkeypatch):
    """Record the ``x0`` of every L-BFGS-B start the driver issues."""
    starts, real = [], fit_mod.sopt.minimize

    def spy(fun, x0, **kwargs):
        starts.append(np.array(x0))
        return real(fun, x0, **kwargs)

    monkeypatch.setattr(fit_mod.sopt, "minimize", spy)
    return starts


class TestMultistartMLE:
    def _search(self, fun, theta0, *, seed=0, n_restarts=3, **kw):
        kw.setdefault("jac", True)
        return multistart_mle(
            fun, np.asarray(theta0, dtype=float), BOUNDS,
            rng=np.random.default_rng(seed), n_restarts=n_restarts, max_fun=50, **kw,
        )

    def test_starts_are_clipped_theta0_then_uniform_draws(self, monkeypatch):
        starts = _spy_starts(monkeypatch)
        theta0 = np.array([7.0, 0.0, -1.0])  # two coordinates out of bounds
        self._search(_bowl([0.0, 0.0, 0.6]), theta0, seed=5)
        lo, hi = np.array(BOUNDS).T
        rng = np.random.default_rng(5)
        want = [np.clip(theta0, lo, hi)] + [rng.uniform(lo, hi) for _ in range(3)]
        assert len(starts) == 4
        for got, ref in zip(starts, want):
            assert got.tobytes() == ref.tobytes()

    def test_box_draw_equals_per_dimension_scalar_draws(self):
        """The GP used to draw each restart coordinate by coordinate."""
        lo, hi = np.array(BOUNDS).T
        a, b = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(20):
            box = a.uniform(lo, hi)
            scalars = np.array([b.uniform(low, high) for low, high in BOUNDS])
            assert box.tobytes() == scalars.tobytes()

    def test_first_lowest_start_wins(self, monkeypatch):
        """Ties go to the earlier start: the comparison is strict."""
        from types import SimpleNamespace

        seen = []

        def flat(fun, x0, **kwargs):
            seen.append(np.array(x0))
            # starts 1 and 2 tie for the lowest value
            return SimpleNamespace(fun=[5.0, 1.0, 1.0, 2.0][len(seen) - 1], x=np.array(x0))

        monkeypatch.setattr(fit_mod.sopt, "minimize", flat)
        best = self._search(_bowl([0, 0, 0.6]), [0.0, 0.0, 0.6])
        assert best.tobytes() == seen[1].tobytes()

    def test_all_sentinel_returns_none(self):
        theta0 = np.array([0.0, 0.0, 0.6])
        before = theta0.copy()
        failing = lambda theta: (NLL_FAIL, np.zeros_like(theta))
        assert self._search(failing, theta0) is None
        assert np.array_equal(theta0, before)  # the caller's theta is untouched

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf"), float("inf")])
    def test_non_finite_optimum_returns_none(self, bad):
        assert self._search(lambda theta: (bad, np.zeros_like(theta)), [0.0, 0.0, 0.6]) is None

    def test_result_independent_of_n_jobs(self):
        def bumpy(theta):  # several basins, so the restarts matter
            value = np.sum(np.sin(3.0 * theta) + 0.1 * theta * theta)
            return float(value), 3.0 * np.cos(3.0 * theta) + 0.2 * theta

        results = [
            self._search(bumpy, [0.0, 0.0, 0.6], seed=3, n_jobs=n_jobs)
            for n_jobs in (1, 2, None)
        ]
        assert results[0].tobytes() == results[1].tobytes() == results[2].tobytes()

    def test_pooled_search_counts_its_starts(self):
        fun = _bowl([0.0, 0.0, 0.6])
        with perf.collect() as stats:
            self._search(fun, [1.0, 1.0, 0.6], n_jobs=1)
            assert "lcm_parallel_starts" not in stats.snapshot()["counters"]
            self._search(fun, [1.0, 1.0, 0.6], n_jobs=2)
        assert stats.snapshot()["counters"]["lcm_parallel_starts"] == 4

    def test_each_start_gets_its_own_args(self):
        """``start_args`` is called once per start, in the calling thread,
        and a start only ever sees the tuple made for it."""
        made, caller = [], threading.get_ident()

        def start_args():
            assert threading.get_ident() == caller
            made.append([])
            return (made[-1],)

        def fun(theta, log):
            log.append(theta.copy())
            return _bowl([0.0, 0.0, 0.6])(theta)

        self._search(fun, [1.0, 1.0, 0.6], start_args=start_args, n_jobs=2)
        assert len(made) == 4 and all(made)
        lo, hi = np.array(BOUNDS).T
        rng = np.random.default_rng(0)
        starts = [np.clip([1.0, 1.0, 0.6], lo, hi)] + [rng.uniform(lo, hi) for _ in range(3)]
        for log, x0 in zip(made, starts):  # each log opens on its own start
            assert np.array_equal(log[0], x0)

    def test_finite_difference_mode(self):
        best = self._search(lambda theta: _bowl([1.0, 0.0, 0.6])(theta)[0],
                            [0.0, 0.0, 0.6], jac=False)
        np.testing.assert_allclose(best, [1.0, 0.0, 0.6], atol=1e-4)


class _Model:
    """Records what the cadence did to it; ``data`` is a tuple of rows."""

    def __init__(self, label):
        self.label, self.optimize = label, True
        self.data, self.log = None, []

    def fit(self, rows):
        if "bad" in rows:
            raise KeyError("cannot factorize")
        self.data = rows
        self.log.append(("fit", self.optimize))


def _grow(model, rows):
    """Reuse or absorb appended rows; a diverged history cannot be grown."""
    if rows[: len(model.data)] != model.data:
        return False
    if rows != model.data:
        model.data = rows
        model.log.append(("grow",))
    return True


class TestRefitCadence:
    def _cadence(self, refit_every):
        self.built = []

        def build(previous, optimize):
            self.built.append((previous, optimize))
            return _Model(len(self.built)) if optimize else previous

        cadence = RefitCadence(refit_every, KeyError)
        return cadence, lambda rows, key=None: cadence.refresh(
            (rows,), build=build, grow=_grow, key=key
        )

    def test_boundary_reuse_absorb_boundary(self):
        cadence, refresh = self._cadence(3)
        first = refresh("ab")
        assert first.log == [("fit", True)] and cadence.model is first
        assert refresh("ab") is first and first.log == [("fit", True)]  # reused
        assert refresh("abc") is first and first.log[-1] == ("grow",)  # absorbed
        second = refresh("abcd")  # the fourth call: a boundary again
        assert second is not first and second.log == [("fit", True)]
        assert self.built == [(None, True), (first, True)]

    def test_diverged_history_refits_with_optimization_off(self):
        _, refresh = self._cadence(4)
        first = refresh("ab")
        assert refresh("xb") is first
        assert first.log == [("fit", True), ("fit", False)]
        assert first.optimize is True  # the flag is the cadence's only for the fit

    def test_refit_every_one_is_a_boundary_every_call(self):
        _, refresh = self._cadence(1)
        assert refresh("ab") is not refresh("ab")
        assert [optimize for _, optimize in self.built] == [True, True]

    def test_reset_starts_over(self):
        cadence, refresh = self._cadence(3)
        refresh("ab")
        refresh("ab")
        cadence.reset()
        assert cadence.model is None
        third = refresh("ab")  # first call again: boundary, and the count restarts
        assert third.log == [("fit", True)]
        assert refresh("ab") is third and refresh("ab") is third
        assert refresh("ab") is not third

    def test_kind_change_forgets_the_model_but_keeps_the_count(self):
        cadence, refresh = self._cadence(3)
        dense = refresh("ab", key="dense")  # call 0: boundary
        sparse = refresh("ab", key="sparse")  # call 1: forced by the kind change
        assert sparse is not dense and cadence.key == "sparse"
        assert self.built[-1] == (None, True)  # the dense model is not carried over
        assert refresh("ab", key="sparse") is sparse  # call 2: between boundaries
        assert refresh("ab", key="sparse") is not sparse  # call 3: the cadence's own

    def test_failed_fit_is_not_held(self):
        """A model is held only once it has been fit: the call after a
        failed first fit is a boundary again, whatever the cadence."""
        cadence, refresh = self._cadence(3)
        assert refresh(("bad",)) is None and cadence.model is None
        model = refresh("ab")
        assert model.log == [("fit", True)]
        assert [optimize for _, optimize in self.built] == [True, True]
        # a failure later on keeps the last good model
        assert refresh(("bad",)) is None and cadence.model is model

    def test_other_errors_propagate(self):
        cadence = RefitCadence(2, KeyError)

        def build(previous, optimize):
            raise RuntimeError("not a fit error")

        with pytest.raises(RuntimeError):
            cadence.refresh(("ab",), build=build, grow=_grow)


class TestGrowGP:
    def test_reuse_append_diverge(self, rng):
        X = rng.random((8, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        gp = GaussianProcess(seed=0).fit(X[:5], y[:5])
        assert grow_gp(gp, X[:5], y[:5]) == 0 and gp.n_train == 5
        assert grow_gp(gp, X[:7], y[:7]) == 2 and gp.n_train == 7
        assert grow_gp(gp, X[1:8], y[1:8]) is None and gp.n_train == 7


class TestFailedFirstFit:
    @staticmethod
    def _provider(monkeypatch, **options):
        """A provider over three observations whose first stored
        factorization is made to fail."""
        space = Space([RealParameter("x", 0.0, 1.0)])
        hist = History({}, space)
        for x in (0.1, 0.4, 0.8):
            hist.append(Evaluation({}, {"x": x}, (x - 0.3) ** 2))
        real, calls = gp_mod.cholesky_with_jitter, [0]

        def first_fit_fails(K, max_tries=8):
            # the search's own ladder is 3 rungs; 8 is the factorization a
            # fit stores
            calls[0] += max_tries == 8
            if max_tries == 8 and calls[0] == 1:
                raise gp_mod.GPFitError("injected")
            return real(K, max_tries)

        monkeypatch.setattr(gp_mod, "cholesky_with_jitter", first_fit_fails)
        return GPProvider(space, TunerOptions(**options)), hist

    def test_next_call_runs_the_mle(self, monkeypatch):
        """Regression: the surrogate of a failed first fit used to count as
        held, so with ``refit_every > 1`` the next call was no boundary and
        served a never-optimized model at default hyperparameters."""
        provider, hist = self._provider(monkeypatch, refit_every=3)
        rng = np.random.default_rng(0)
        assert provider.model(hist, rng) is None
        assert not provider.gp.fitted

        hist.append(Evaluation({}, {"x": 0.6}, 0.09))
        with perf.collect() as stats:
            predict = provider.model(hist, rng)
        assert predict is not None and provider.gp.n_train == 4
        assert stats.snapshot()["timers"]["gp_mle"]["count"] == 1  # a boundary: the MLE runs

    @pytest.mark.parametrize("refit_every", [1, 3])
    def test_retry_keeps_the_surrogate_and_the_loop_rng(self, monkeypatch, refit_every):
        """The retry refits the object already made: no second seed is
        drawn, so the loop's random stream is where a successful first fit
        would have left it (at ``refit_every=1``, the parent's trajectory)."""
        provider, hist = self._provider(monkeypatch, refit_every=refit_every)
        rng, reference = np.random.default_rng(0), np.random.default_rng(0)
        assert provider.model(hist, rng) is None
        made = provider.gp
        reference.integers(0, 2**31 - 1)  # the one seed of the run
        assert rng.bit_generator.state == reference.bit_generator.state
        assert provider.model(hist, rng).__self__ is made
        assert rng.bit_generator.state == reference.bit_generator.state
