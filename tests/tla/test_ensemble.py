"""Tests for the ensemble strategies (paper Sec. V-E, Algorithm 1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import TaskData
from repro.tla import EnsembleProb, EnsembleProposed, EnsembleToggling
from repro.tla.base import TLAStrategy
from repro.tla.ensemble import exploration_rate


class _StubStrategy(TLAStrategy):
    """A controllable pool member for selector tests."""

    provenance = "test"

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.model_calls = 0

    def model(self, target, rng):
        self.model_calls += 1
        return lambda X: (np.zeros(X.shape[0]), np.ones(X.shape[0]))


def _sources():
    rng = np.random.default_rng(0)
    X = rng.random((10, 2))
    return [TaskData({"t": 0}, X, X[:, 0])]


def _target(n=3):
    rng = np.random.default_rng(1)
    X = rng.random((n, 2))
    return TaskData({"t": 1}, X, X[:, 0])


def _make(cls, n=3):
    pool = [_StubStrategy(f"s{i}") for i in range(n)]
    ens = cls(pool=pool)
    ens.prepare(_sources(), np.random.default_rng(0))
    return ens, pool


class TestExplorationRate:
    def test_eq4_values(self):
        # |T|=3, n_params=5, n_samples=10 -> ratio 1.5 -> 0.6
        assert exploration_rate(3, 5, 10) == pytest.approx(1.5 / 2.5)

    def test_zero_samples_full_exploration(self):
        assert exploration_rate(3, 5, 0) == 1.0

    def test_decreases_with_samples(self):
        rates = [exploration_rate(3, 5, n) for n in (1, 5, 20, 100)]
        assert rates == sorted(rates, reverse=True)

    def test_increases_with_parameters(self):
        assert exploration_rate(3, 10, 10) > exploration_rate(3, 2, 10)

    def test_increases_with_pool_size(self):
        assert exploration_rate(5, 5, 10) > exploration_rate(2, 5, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            exploration_rate(0, 5, 1)


class TestProbabilities:
    def test_uniform_before_any_result(self):
        ens, _ = _make(EnsembleProb)
        assert np.allclose(ens._probabilities(), 1.0 / 3.0)

    def test_eq3_inverse_best_output(self):
        ens, _ = _make(EnsembleProb)
        ens.best_outputs = [1.0, 2.0, math.inf]
        p = ens._probabilities()
        # prob ~ 1/best over seen algorithms: (1, 0.5) normalized
        assert p[0] == pytest.approx(2.0 / 3.0)
        assert p[1] == pytest.approx(1.0 / 3.0)
        assert p[2] == 0.0

    def test_nonpositive_outputs_shifted(self):
        ens, _ = _make(EnsembleProb)
        ens.best_outputs = [-2.0, 1.0, math.inf]
        p = ens._probabilities()
        assert np.all(p >= 0) and p.sum() == pytest.approx(1.0)
        assert p[0] > p[1]  # better (lower) best keeps higher probability


class TestSelectors:
    def test_toggling_cycles(self):
        ens, pool = _make(EnsembleToggling)
        rng = np.random.default_rng(0)
        order = [ens._choose(_target(), rng) for _ in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]

    def test_prob_prefers_best(self):
        ens, _ = _make(EnsembleProb)
        ens.best_outputs = [0.1, 10.0, 10.0]
        rng = np.random.default_rng(0)
        picks = [ens._choose(_target(), rng) for _ in range(200)]
        assert picks.count(0) > 150

    def test_proposed_explores_with_no_data(self):
        ens, _ = _make(EnsembleProposed)
        ens.best_outputs = [0.1, 10.0, 10.0]
        rng = np.random.default_rng(0)
        # n=0 -> exploration rate 1 -> uniform despite the skewed bests
        picks = [ens._choose(_target(0), rng) for _ in range(300)]
        for i in range(3):
            assert picks.count(i) > 60

    def test_proposed_exploits_with_much_data(self):
        ens, _ = _make(EnsembleProposed)
        ens.best_outputs = [0.1, 10.0, 10.0]
        rng = np.random.default_rng(0)
        picks = [ens._choose(_target(500), rng) for _ in range(300)]
        assert picks.count(0) > 200


class TestResultTracking:
    def test_notify_result_updates_chosen_only(self):
        ens, _ = _make(EnsembleProb)
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)  # sets _chosen
        chosen = ens._chosen
        ens.notify_result(np.zeros(2), 3.5)
        assert ens.best_outputs[chosen] == 3.5
        others = [v for i, v in enumerate(ens.best_outputs) if i != chosen]
        assert all(math.isinf(v) for v in others)

    def test_failure_does_not_update(self):
        ens, _ = _make(EnsembleProb)
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)
        ens.notify_result(np.zeros(2), None)
        assert all(math.isinf(v) for v in ens.best_outputs)

    def test_best_only_improves(self):
        ens, _ = _make(EnsembleToggling)
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)
        ens.notify_result(np.zeros(2), 1.0)
        ens._chosen = 0
        ens.notify_result(np.zeros(2), 5.0)
        assert ens.best_outputs[0] == 1.0

    def test_chosen_name(self):
        ens, pool = _make(EnsembleToggling)
        assert ens.chosen_name is None
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)
        assert ens.chosen_name == pool[0].name


class TestDefaults:
    def test_default_pool_is_papers(self):
        ens = EnsembleProposed()
        names = [s.name for s in ens.pool]
        assert names == ["Multitask (TS)", "WeightedSum (dynamic)", "Stacking"]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            EnsembleProposed(pool=[])


class TestRePrepare:
    """Re-preparation must fully reset selector state (regression)."""

    def test_toggling_counter_resets(self):
        ens, _ = _make(EnsembleToggling)
        rng = np.random.default_rng(0)
        # advance the round-robin cursor mid-cycle...
        order = [ens._choose(_target(), rng) for _ in range(4)]
        assert order == [0, 1, 2, 0]
        # ...then re-prepare: the cycle must restart at member 0
        ens.prepare(_sources(), np.random.default_rng(1))
        order = [ens._choose(_target(), rng) for _ in range(3)]
        assert order == [0, 1, 2]

    def test_best_outputs_reset(self):
        ens, _ = _make(EnsembleProb)
        ens.best_outputs = [1.0, 2.0, 3.0]
        ens.prepare(_sources(), np.random.default_rng(1))
        assert all(math.isinf(v) for v in ens.best_outputs)
        assert ens._chosen is None


class TestCreditWithSeveralProposalsInFlight:
    """Algorithm 1 charges an outcome to the member that proposed the
    point, not to whichever member the latest ``model()`` call picked."""

    def test_result_after_a_later_model_call_credits_its_proposer(self):
        ens, _ = _make(EnsembleToggling)
        rng = np.random.default_rng(0)
        x1, x2 = np.array([0.1, 0.2]), np.array([0.7, 0.8])
        ens.model(_target(), rng)  # member 0
        ens.notify_proposal(x1, rng)
        ens.model(_target(), rng)  # member 1
        ens.notify_proposal(x2, rng)
        ens.notify_result(x1, 1.5)  # lands late: member 1 is the latest choice
        assert ens.best_outputs == [1.5, math.inf, math.inf]
        ens.notify_result(x2, 0.5)
        assert ens.best_outputs == [1.5, 0.5, math.inf]
        assert not ens._proposer  # settled proposals are forgotten

    def test_async_engine_with_a_scripted_pool(self, shifted_quadratics, source_factory):
        """Four workers, batches of two: the members themselves log whose
        ``model()`` preceded each proposal, and every member's recorded best
        must be the best outcome among its own proposals."""
        from repro.fabric import FabricOptions, FabricTuner
        from repro.tla import StrategyProvider

        script = {"current": None, "owner": {}}

        class Scripted(_StubStrategy):
            def model(self, target, rng):
                script["current"] = self.name
                return super().model(target, rng)

            def notify_proposal(self, x_unit, rng):
                script["owner"][x_unit.tobytes()] = script["current"]

        pool = [Scripted(f"s{i}") for i in range(3)]
        ens = EnsembleToggling(pool=pool)
        tuner = FabricTuner(
            shifted_quadratics,
            None,
            FabricOptions(n_procs=4, batch=2, base_latency_s=0.01),
        )
        src = source_factory(shifted_quadratics, {"t": 0}, 10, seed=0)
        tuner.provider = StrategyProvider(ens, [src])
        res = tuner.tune({"t": 5}, 14, seed=3)
        space = shifted_quadratics.parameter_space
        expected = {m.name: math.inf for m in pool}
        for e in res.history.evaluations:
            owner = script["owner"][space.to_unit(e.config).tobytes()]
            expected[owner] = min(expected[owner], float(e.output))
        assert ens.best_outputs == [expected[m.name] for m in pool]


class TestFailureBookkeeping:
    """Best-output tracking under failed evaluations (paper Alg. 1)."""

    def test_probabilities_uniform_until_finite_result(self):
        ens, _ = _make(EnsembleProb)
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)
        ens.notify_result(np.zeros(2), None)  # failure: no update
        assert np.allclose(ens._probabilities(), 1.0 / 3.0)
        ens.model(_target(), rng)
        ens.notify_result(np.zeros(2), 2.0)  # first finite result
        p = ens._probabilities()
        assert not np.allclose(p, 1.0 / 3.0)
        assert p.sum() == pytest.approx(1.0)

    def test_failures_interleaved_with_successes(self):
        ens, _ = _make(EnsembleProb)
        rng = np.random.default_rng(0)
        ens.model(_target(), rng)
        chosen = ens._chosen
        ens.notify_result(np.zeros(2), 1.5)
        ens._chosen = chosen
        ens.notify_result(np.zeros(2), None)  # later failure must not clobber
        assert ens.best_outputs[chosen] == 1.5

    def test_all_nonpositive_bests_shifted(self):
        # every seen best <= 0 exercises the Eq. (3) shift branch
        ens, _ = _make(EnsembleProb)
        ens.best_outputs = [-5.0, -1.0, 0.0]
        p = ens._probabilities()
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0)
        # ordering preserved: lower (better) best -> higher probability
        assert p[0] > p[1] > p[2]
