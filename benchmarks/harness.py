"""Shared experiment harness for the paper-reproduction benchmarks.

Every benchmark module regenerates one table or figure of the paper.
This harness provides the common machinery:

* source-dataset collection (random configurations, successes only — the
  paper's protocol, Sec. VI-B),
* the multi-algorithm tuning comparison (NoTLA + the TLA pool) with
  repeated runs and best-so-far aggregation,
* paper-style text rendering of trajectory tables and sensitivity tables,
* JSON result dumps under ``benchmarks/results/`` (consumed when updating
  EXPERIMENTS.md).

Scale control: benchmarks default to a laptop-fast configuration
(reduced source sizes / repeats).  Set ``REPRO_BENCH_FULL=1`` to run at
the paper's full scale (e.g. 500 NIMROD source samples, 5 repeats).
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from repro.apps.base import HPCApplication
from repro.core import TaskData, Tuner, TunerOptions
from repro.core import perf as _perf_module
from repro.core.tuner import TuningResult
from repro.tla import TransferTuner, get_strategy

FULL = os.environ.get("REPRO_BENCH_FULL", "0") == "1"

#: CI smoke mode: tiny budgets, perf assertions loosened to sanity checks
#: (shared runners have noisy clocks; the full thresholds run locally)
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1" and not FULL

RESULTS_DIR = Path(__file__).parent / "results"

#: the tuner lineup of the paper's TLA figures
PAPER_TUNERS = [
    "notla",
    "multitask-ps",
    "multitask-ts",
    "weighted-sum-equal",
    "weighted-sum-dynamic",
    "stacking",
    "ensemble-proposed",
]

#: the full Fig. 3 lineup adds the two naive ensembles
FIG3_TUNERS = PAPER_TUNERS + ["ensemble-toggling", "ensemble-prob"]

DISPLAY_NAMES = {
    "notla": "NoTLA",
    "multitask-ps": "Multitask(PS)",
    "multitask-ts": "Multitask(TS)",
    "weighted-sum-equal": "WeightedSum(equal)",
    "weighted-sum-dynamic": "WeightedSum(dynamic)",
    "stacking": "Stacking",
    "ensemble-proposed": "Ensemble(proposed)",
    "ensemble-toggling": "Ensemble(toggling)",
    "ensemble-prob": "Ensemble(prob)",
}


def collect_source(
    app: HPCApplication,
    task: Mapping[str, Any],
    n: int,
    *,
    seed: int = 0,
    run: int = 10_000,
    label: str = "",
) -> TaskData:
    """Random-configuration source dataset (successful evaluations only)."""
    rng = np.random.default_rng(seed)
    space = app.parameter_space()
    configs, ys, failed = [], [], []
    attempts = 0
    while len(ys) < n:
        attempts += 1
        if attempts > 60 * n:
            raise RuntimeError(
                f"could not collect {n} successes for {dict(task)} "
                f"({len(ys)} after {attempts} attempts)"
            )
        cfg = space.sample(rng)
        y = app.objective(task, cfg, run=run)
        if y is not None:
            configs.append(cfg)
            ys.append(y)
        else:
            failed.append(cfg)
    return TaskData(
        dict(task),
        space.to_unit_array(configs),
        np.asarray(ys),
        label=label,
        X_failed=space.to_unit_array(failed),
    )


def make_tuner(
    key: str, problem, sources: Sequence[TaskData], **strategy_kwargs
) -> Tuner:
    """Instantiate one lineup entry (``notla`` or a TLA registry key)."""
    if key == "notla":
        return Tuner(problem, TunerOptions(n_initial=2))
    strategy = get_strategy(key, **strategy_kwargs)
    return TransferTuner(problem, strategy, list(sources))


def _run_cell(
    app: HPCApplication,
    task: Mapping[str, Any],
    sources: Sequence[TaskData],
    key: str,
    n_evals: int,
    rep: int,
    strategy_kwargs: Mapping[str, Any],
) -> tuple[str, int, list[float], Any]:
    """One (tuner, repeat) cell; module-level so process pools can ship it.

    Seeding is a pure function of the cell coordinates (``seed=rep``), so
    the sweep's results are independent of worker scheduling: a parallel
    run returns exactly what the sequential loop returns.
    """
    problem = app.make_problem(run=rep)
    tuner = make_tuner(key, problem, sources, **strategy_kwargs)
    result: TuningResult = tuner.tune(task, n_evals, seed=rep)
    return key, rep, list(result.best_so_far()), result.perf


def run_comparison(
    app: HPCApplication,
    task: Mapping[str, Any],
    sources: Sequence[TaskData],
    *,
    tuners: Sequence[str],
    n_evals: int,
    repeats: int,
    strategy_kwargs: Mapping[str, Any] | None = None,
    show_perf: bool = True,
    n_jobs: int = 1,
) -> dict[str, np.ndarray]:
    """Run every tuner ``repeats`` times; returns best-so-far matrices.

    Result arrays have shape ``(repeats, n_evals)`` with NaN before the
    first success of a run (the paper's "do not draw points" convention
    for runs with failures, Fig. 5(c)).  With ``show_perf`` each tuner's
    aggregated :mod:`repro.core.perf` counters/timers are printed, so
    every benchmark doubles as a hot-path profile.

    ``n_jobs > 1`` fans the repeats x strategies cells across a process
    pool.  Each cell is seeded by its coordinates alone, so parallel and
    sequential runs produce identical matrices (pinned by the Table-I
    pool benchmark).  Each cell fits its own source GPs; nothing is
    shared across cells (within a cell, an ensemble hands its source
    fits to its members).
    """
    kwargs = dict(strategy_kwargs or {})
    cells = [(key, rep) for key in tuners for rep in range(repeats)]
    rows: dict[str, list] = {key: [None] * repeats for key in tuners}
    perfs: dict[str, list] = {key: [] for key in tuners}

    if n_jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            futures = [
                pool.submit(_run_cell, app, task, sources, key, n_evals, rep, kwargs)
                for key, rep in cells
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _run_cell(app, task, sources, key, n_evals, rep, kwargs)
            for key, rep in cells
        ]

    for key, rep, best, perf in results:
        rows[key][rep] = best
        if perf is not None:
            perfs[key].append(perf)
            if n_jobs > 1:
                # subprocess cells record into *their* collector stacks;
                # fold the returned snapshots into ours so process-pool
                # sweeps lose no counters (perf.merge, the same path the
                # fabric coordinator uses for worker processes)
                _perf_module.merge(perf)

    out: dict[str, np.ndarray] = {}
    for key in tuners:
        out[key] = np.asarray(rows[key], dtype=float)
        if show_perf and perfs[key]:
            print(f"[perf] {DISPLAY_NAMES.get(key, key)} ({repeats} runs)")
            print(format_perf(aggregate_perf(perfs[key])))
    return out


def aggregate_perf(perfs: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Sum :meth:`PerfStats.snapshot` dicts across repeated runs."""
    counters: dict[str, int] = {}
    timers: dict[str, dict[str, float]] = {}
    for p in perfs:
        for name, v in p.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + int(v)
        for name, t in p.get("timers", {}).items():
            slot = timers.setdefault(name, {"total_s": 0.0, "count": 0})
            slot["total_s"] += float(t["total_s"])
            slot["count"] += int(t["count"])
    for t in timers.values():
        t["mean_ms"] = 1e3 * t["total_s"] / t["count"] if t["count"] else 0.0
    return {"counters": counters, "timers": timers}


def format_perf(perf: Mapping[str, Any], indent: str = "  ") -> str:
    """Compact rendering of an aggregated perf snapshot."""
    lines = []
    for name in sorted(perf.get("timers", {})):
        t = perf["timers"][name]
        lines.append(
            f"{indent}{name:<28} {t['total_s'] * 1e3:9.1f} ms"
            f"  ({t['count']} calls, {t['mean_ms']:.3f} ms avg)"
        )
    for name in sorted(perf.get("counters", {})):
        lines.append(f"{indent}{name:<28} {perf['counters'][name]:9d}")
    return "\n".join(lines)


def mean_trajectories(results: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Mean best-so-far per evaluation, ignoring not-yet-successful runs."""
    import warnings

    means = {}
    for key, mat in results.items():
        with warnings.catch_warnings():
            # all-NaN columns (no run has succeeded yet) mean "no point
            # drawn", exactly the paper's convention — not an error
            warnings.simplefilter("ignore", category=RuntimeWarning)
            means[key] = np.nanmean(mat, axis=0)
    return means


def value_at(results: Mapping[str, np.ndarray], key: str, eval_index: int) -> float:
    """Mean best-so-far of a tuner after ``eval_index + 1`` evaluations."""
    return float(mean_trajectories(results)[key][eval_index])


def speedup_over_notla(
    results: Mapping[str, np.ndarray], key: str, eval_index: int
) -> float:
    """The paper's headline metric: NoTLA runtime / tuner runtime at the
    given evaluation count (``> 1`` means the tuner wins)."""
    base = value_at(results, "notla", eval_index)
    val = value_at(results, key, eval_index)
    if not math.isfinite(val) or val <= 0:
        return float("nan")
    return base / val


def render_trajectories(
    title: str, results: Mapping[str, np.ndarray], *, marks: Sequence[int] = ()
) -> str:
    """Paper-style series table: one row per tuner, one column per eval."""
    means = mean_trajectories(results)
    n_evals = len(next(iter(means.values())))
    cols = list(range(0, n_evals, max(n_evals // 10, 1)))
    if n_evals - 1 not in cols:
        cols.append(n_evals - 1)
    lines = [title, "=" * len(title)]
    header = f"{'tuner':<22}" + "".join(f"  @{c + 1:<6}" for c in cols)
    lines.append(header)
    lines.append("-" * len(header))
    for key, mean in means.items():
        cells = "".join(
            f"  {mean[c]:<7.4g}" if math.isfinite(mean[c]) else "  --     "
            for c in cols
        )
        lines.append(f"{DISPLAY_NAMES.get(key, key):<22}{cells}")
    for m in marks:
        best = min(
            (k for k in means if math.isfinite(means[k][m])),
            key=lambda k: means[k][m],
            default=None,
        )
        if best is not None and "notla" in means:
            lines.append(
                f"@ {m + 1} evaluations: best = {DISPLAY_NAMES.get(best, best)} "
                f"({means[best][m]:.4g}); NoTLA = {means['notla'][m]:.4g}; "
                f"speedup {speedup_over_notla(results, best, m):.2f}x"
            )
    return "\n".join(lines)


def save_results(name: str, payload: Mapping[str, Any]) -> Path:
    """Dump a JSON result file for EXPERIMENTS.md bookkeeping.

    Smoke-scale results go to the git-ignored ``results/smoke/``, so a
    smoke run never overwrites the committed default-scale files.
    """
    directory = RESULTS_DIR / "smoke" if SMOKE else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(_jsonable(payload), indent=1, sort_keys=True))
    return path


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return None if not math.isfinite(v) else v
    if isinstance(obj, np.integer):
        return int(obj)
    return obj
