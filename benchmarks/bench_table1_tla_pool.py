"""Table I: the TLA algorithm pool of GPTuneCrowd.

Two parts:

* the descriptive check — the pool's inventory and provenance metadata
  must match the paper's Table I exactly, and
* the pool *sweep* — repeats x strategies fanned across a process pool
  (``run_comparison(n_jobs=...)``) with deterministic per-cell seeding.
  The parallel sweep must return exactly the sequential sweep's
  matrices.
"""

from __future__ import annotations

import numpy as np

from repro.apps.synthetic import DemoFunction
from repro.tla import STRATEGY_REGISTRY, get_strategy, pool_table

from harness import SMOKE, collect_source, run_comparison, save_results

#: (name, first autotuner) rows exactly as printed in the paper's Table I
PAPER_TABLE1 = {
    "Multitask (PS)": "[11]",
    "Multitask (TS)": "GPTuneCrowd",
    "WeightedSum (equal)": "[6]",
    "WeightedSum (dynamic)": "GPTuneCrowd",
    "Stacking": "[12]",
    "Ensemble (proposed)": "GPTuneCrowd",
}

SWEEP_TUNERS = ["weighted-sum-dynamic", "stacking", "multitask-ts"]
N_EVALS = 3 if SMOKE else 5
REPEATS = 2
N_SRC = 15 if SMOKE else 30


def test_table1_pool(benchmark):
    rows = benchmark.pedantic(
        lambda: [get_strategy(k) and r for k, r in zip(
            sorted(STRATEGY_REGISTRY), pool_table()
        )],
        rounds=1,
        iterations=1,
    )
    table = {r["name"]: r["first_autotuner"] for r in pool_table()}
    print("\nTable I — TLA pool")
    for name, prov in table.items():
        print(f"  {name:<24} first autotuner: {prov}")
    save_results("table1", {"pool": pool_table()})

    for name, provenance in PAPER_TABLE1.items():
        assert table.get(name) == provenance, name
    # the two naive ensemble baselines of Sec. V-E are also in the pool
    assert "Ensemble (toggling)" in table and "Ensemble (prob)" in table
    del rows


def _sweep(app, sources, n_jobs):
    return run_comparison(
        app,
        {"t": 1.1},
        sources,
        tuners=SWEEP_TUNERS,
        n_evals=N_EVALS,
        repeats=REPEATS,
        show_perf=False,
        n_jobs=n_jobs,
    )


def test_parallel_sweep_matches_sequential(benchmark):
    """Process-pool fan-out is a pure throughput knob: identical results."""
    app = DemoFunction()
    sources = [
        collect_source(app, {"t": t}, N_SRC, seed=i, label=f"t={t}")
        for i, t in enumerate((0.8, 1.0))
    ]

    seq = _sweep(app, sources, n_jobs=1)
    par = benchmark.pedantic(
        _sweep, args=(app, sources, 2), rounds=1, iterations=1
    )

    assert set(seq) == set(par)
    for key in seq:
        assert np.array_equal(seq[key], par[key], equal_nan=True), key
    save_results(
        "table1_pool_sweep",
        {"tuners": SWEEP_TUNERS, "n_evals": N_EVALS, "repeats": REPEATS,
         "parallel_equals_sequential": True},
    )

