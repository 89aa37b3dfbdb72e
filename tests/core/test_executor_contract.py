"""The executor contract of the one tuning loop, on both executors.

``Tuner.tune`` relies on exactly this surface (see :mod:`repro.core.tuner`):
``submit`` hands out job ids counting up from 0; ``get`` returns terminal
outcomes only — re-dispatch happens inside — and raises ``queue.Empty``
on timeout; ``inflight`` counts what was submitted and not yet
collected; ``n_workers`` bounds the proposals kept in flight and
``step`` names the loop's per-step timer.
"""

from __future__ import annotations

import queue

import pytest

from repro.core.problem import Evaluation
from repro.core.tuner import InlineExecutor
from repro.fabric import FabricCoordinator, FabricOptions
from tests.fabric.faults import ScriptedFaults


def evaluate(config):
    return Evaluation({"t": 1}, dict(config), config["x"] * 2.0)


def inline():
    return InlineExecutor(evaluate)


def fabric():
    # job 0's first attempt kills its worker: the retry must stay inside
    faults = ScriptedFaults({(0, 0)})
    return FabricCoordinator(evaluate, FabricOptions(n_procs=2), fault=faults)


#: executor factory, its ``n_workers`` and its ``step``
EXECUTORS = {
    "inline": (inline, 1, "iteration"),
    "fabric": (fabric, 2, "propose"),
}


@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_executor_contract(name):
    make, n_workers, step = EXECUTORS[name]
    with make() as executor:
        assert executor.n_workers == n_workers
        assert executor.step == step
        assert executor.inflight == 0
        ids = [executor.submit({"x": float(i)}) for i in range(6)]
        assert ids == list(range(6))
        assert executor.inflight == 6
        outcomes = []
        for left in reversed(range(6)):
            outcomes.append(executor.get(timeout=30.0))
            assert executor.inflight == left
        with pytest.raises(queue.Empty):
            executor.get(timeout=0.05)
    # one terminal outcome per job, and a lost attempt is never one
    assert sorted(o.job_id for o in outcomes) == ids
    assert all(o.ok for o in outcomes)
    assert all(o.evaluation.output == o.config["x"] * 2.0 for o in outcomes)
