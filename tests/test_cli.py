"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_app, main
from repro.core.sparse import SURROGATE_KINDS


class TestBuildApp:
    def test_machine_apps_get_machines(self):
        app = build_app("pdgeqrf", "cori-haswell", 8)
        assert app.machine.nodes == 8

    def test_synthetic_apps_ignore_machine(self):
        app = build_app("demo", None, 8)
        assert not hasattr(app, "machine")

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            build_app("quantum", None, 1)


class TestCommands:
    def test_apps_listing(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "pdgeqrf" in out and "cori-knl" in out and "ensemble-proposed" in out

    def test_pool_table(self, capsys):
        assert main(["pool"]) == 0
        out = capsys.readouterr().out
        assert "Multitask (TS)" in out and "GPTuneCrowd" in out
        assert "[6]" in out and "[12]" in out

    def test_tune_demo(self, capsys):
        rc = main(["tune", "--app", "demo", "--samples", "4", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("best-so-far")])
        assert payload["n_evaluations"] == 4
        assert payload["tuner"] == "NoTLA"

    def test_tune_with_tla(self, capsys):
        rc = main(
            [
                "tune",
                "--app",
                "demo",
                "--samples",
                "3",
                "--tla",
                "stacking",
                "--source-task",
                '{"t": 0.8}',
                "--source-samples",
                "15",
            ]
        )
        assert rc == 0
        assert '"tuner": "Stacking"' in capsys.readouterr().out

    @pytest.mark.parametrize("tla", [[], ["--tla", "stacking"]], ids=["notla", "tla"])
    def test_surrogate_flags_reach_whoever_fits_the_model(self, capsys, tla):
        """``--tla`` used to drop them: the strategy fits the target's
        model, and only ``TunerOptions`` was told."""
        argv = ["tune", "--app", "demo", "--samples", "6", "--surrogate", "sparse"]
        assert main(argv + tla) == 0
        out = capsys.readouterr().out
        counters = json.loads(out[: out.index("best-so-far")])["perf"]["counters"]
        assert counters["sparse_fits"] > 0

    def test_tune_async_workers(self, capsys):
        rc = main(
            [
                "tune", "--app", "demo", "--samples", "6",
                "--workers", "4", "--batch", "2", "--seed", "0",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("best-so-far")])
        assert payload["tuner"] == "AsyncNoTLA"
        assert payload["n_evaluations"] == 6

    def test_tune_workers_with_tla(self, capsys):
        rc = main(
            [
                "tune", "--app", "demo", "--samples", "6", "--seed", "0",
                "--workers", "4", "--batch", "2", "--tla", "stacking",
                "--source-samples", "15",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("best-so-far")])
        assert payload["tuner"] == "AsyncStacking"
        assert payload["n_evaluations"] == 6

    def test_tune_custom_task(self, capsys):
        rc = main(
            ["tune", "--app", "demo", "--samples", "2", "--task", '{"t": 2.5}']
        )
        assert rc == 0
        assert '"t": 2.5' in capsys.readouterr().out

    def test_tune_invalid_task_rejected(self):
        with pytest.raises(SystemExit, match="--task: value 99 invalid"):
            main(["tune", "--app", "demo", "--samples", "2", "--task", '{"t": 99}'])

    @pytest.mark.parametrize(
        "flag, text, reason",
        [
            ("--task", "{bad", "Expecting property name"),
            ("--task", '{"nope": 1}', "missing parameter 't'"),
            ("--task", "3", "expected a JSON object"),
            ("--source-task", "{bad", "Expecting property name"),
            ("--source-task", '{"t": 99}', "value 99 invalid"),
        ],
    )
    def test_malformed_task_exits_with_the_reason(self, flag, text, reason):
        """Regression: these died with a raw JSONDecodeError / SpaceError
        traceback; like an unknown app, they now exit naming the flag."""
        argv = ["tune", "--app", "demo", "--samples", "2", "--tla", "stacking", flag, text]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value).startswith(f"{flag}: ") and reason in str(exc.value)

    def test_sensitivity_demo(self, capsys):
        rc = main(
            [
                "sensitivity",
                "--app",
                "demo",
                "--samples",
                "40",
                "--n-base",
                "64",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sobol sensitivity" in out and "x" in out

    def test_surrogate_choices_are_the_policy_kinds(self, capsys):
        """``--surrogate`` offers exactly ``SURROGATE_KINDS`` (derived, not a
        second hand-written list), and every kind runs."""
        with pytest.raises(SystemExit):
            main(["tune", "--app", "demo", "--surrogate", "partitioned"])
        offered = capsys.readouterr().err.split("choose from")[1]
        assert tuple(re.findall(r"[a-z]+", offered)) == SURROGATE_KINDS
        for kind in SURROGATE_KINDS:
            assert main(["tune", "--app", "demo", "--samples", "4", "--surrogate", kind]) == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_app(self):
        with pytest.raises(SystemExit):
            main(["tune"])
