"""Tests for the benchmark harness — it computes every reported number."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent.parent / "benchmarks"))

from harness import (  # noqa: E402
    DISPLAY_NAMES,
    PAPER_TUNERS,
    collect_source,
    make_tuner,
    mean_trajectories,
    render_trajectories,
    run_comparison,
    save_results,
    speedup_over_notla,
    value_at,
)

from repro.apps import DemoFunction  # noqa: E402
from repro.core import Tuner  # noqa: E402
from repro.tla import TransferTuner  # noqa: E402


class TestCollectSource:
    def test_collects_exactly_n_successes(self):
        app = DemoFunction()
        src = collect_source(app, {"t": 0.8}, 12, seed=0)
        assert src.n == 12
        assert src.task == {"t": 0.8}

    def test_records_failures(self):
        from repro.apps import NIMROD
        from repro.hpc import cori_haswell

        app = NIMROD(cori_haswell(64))
        src = collect_source(app, {"mx": 6, "my": 8, "lphi": 1}, 15, seed=0)
        assert src.n == 15
        assert len(src.X_failed) > 0  # the OOM region was sampled

    def test_deterministic(self):
        app = DemoFunction()
        a = collect_source(app, {"t": 0.8}, 8, seed=5)
        b = collect_source(app, {"t": 0.8}, 8, seed=5)
        assert np.allclose(a.X, b.X) and np.allclose(a.y, b.y)


class TestMakeTuner:
    def test_notla(self):
        app = DemoFunction()
        tuner = make_tuner("notla", app.make_problem(), [])
        assert isinstance(tuner, Tuner) and not isinstance(tuner, TransferTuner)

    def test_tla_keys(self):
        app = DemoFunction()
        src = collect_source(app, {"t": 0.8}, 10, seed=0)
        tuner = make_tuner("stacking", app.make_problem(), [src])
        assert isinstance(tuner, TransferTuner)


class TestAggregation:
    @pytest.fixture
    def results(self):
        return {
            "notla": np.array([[4.0, 2.0], [6.0, 4.0]]),
            "stacking": np.array([[2.0, 1.0], [np.nan, 2.0]]),
        }

    def test_mean_trajectories_nan_aware(self, results):
        means = mean_trajectories(results)
        assert np.allclose(means["notla"], [5.0, 3.0])
        # first eval: only one finite run
        assert means["stacking"][0] == 2.0
        assert means["stacking"][1] == 1.5

    def test_value_at(self, results):
        assert value_at(results, "notla", 1) == 3.0

    def test_speedup_over_notla(self, results):
        assert speedup_over_notla(results, "stacking", 1) == pytest.approx(2.0)

    def test_speedup_nan_when_no_data(self):
        results = {
            "notla": np.array([[4.0]]),
            "stacking": np.array([[np.nan]]),
        }
        import math

        assert math.isnan(speedup_over_notla(results, "stacking", 0))

    def test_render_contains_all_tuners(self, results):
        text = render_trajectories("T", results, marks=[1])
        assert "NoTLA" in text and "Stacking" in text
        assert "speedup 2.00x" in text

    def test_display_names_cover_lineup(self):
        for key in PAPER_TUNERS:
            assert key in DISPLAY_NAMES


class TestRunComparison:
    def test_shapes_and_determinism(self):
        app = DemoFunction()
        src = collect_source(app, {"t": 0.8}, 15, seed=0)
        a = run_comparison(
            app, {"t": 1.0}, [src], tuners=["notla", "stacking"],
            n_evals=3, repeats=2,
        )
        assert a["notla"].shape == (2, 3)
        b = run_comparison(
            app, {"t": 1.0}, [src], tuners=["notla", "stacking"],
            n_evals=3, repeats=2,
        )
        assert np.allclose(a["stacking"], b["stacking"], equal_nan=True)


class TestSaveResults:
    def test_json_written_and_nan_safe(self, tmp_path, monkeypatch):
        import harness

        monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
        path = save_results("unit", {"a": np.array([1.0, np.nan]), "b": 3})
        import json

        blob = json.loads(path.read_text())
        assert blob["a"] == [1.0, None]
        assert blob["b"] == 3

    def test_a_smoke_save_leaves_every_committed_result_unchanged(self, tmp_path, monkeypatch):
        import shutil

        import harness

        results = tmp_path / "results"
        shutil.copytree(harness.RESULTS_DIR, results, ignore=shutil.ignore_patterns("smoke"))
        committed = {p.name: p.read_bytes() for p in results.glob("*.json")}
        assert committed
        monkeypatch.setattr(harness, "RESULTS_DIR", results)
        monkeypatch.setattr(harness, "SMOKE", True)
        for name in committed:  # every committed file's own name, at smoke scale
            path = save_results(name.removesuffix(".json"), {"smoke": True})
            assert path.parent == results / "smoke"
        assert {p.name: p.read_bytes() for p in results.glob("*.json")} == committed
        assert len(list((results / "smoke").glob("*.json"))) == len(committed)
