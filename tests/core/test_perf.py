"""Tests for repro.core.perf: counters, nested timers, collector stack."""

from __future__ import annotations

import threading

from repro.core import perf
from repro.core.perf import PerfStats


class TestPerfStats:
    def test_counters_accumulate(self):
        s = PerfStats()
        s.incr("fits")
        s.incr("fits", 3)
        assert s.counters["fits"] == 4

    def test_timers_accumulate(self):
        s = PerfStats()
        s.add_time("search", 0.5)
        s.add_time("search", 0.25)
        snap = s.snapshot()["timers"]["search"]
        assert snap["total_s"] == 0.75
        assert snap["count"] == 2
        assert snap["mean_ms"] == 375.0

    def test_snapshot_is_detached(self):
        s = PerfStats()
        s.incr("fits")
        snap = s.snapshot()
        s.incr("fits")
        assert snap["counters"]["fits"] == 1

    def test_snapshot_jsonable(self):
        import json

        s = PerfStats()
        s.incr("fits")
        s.add_time("search", 0.1)
        json.dumps(s.snapshot())

    def test_reset(self):
        s = PerfStats()
        s.incr("fits")
        s.add_time("search", 0.1)
        s.reset()
        assert s.snapshot() == {"counters": {}, "timers": {}}

    def test_format_mentions_entries(self):
        s = PerfStats()
        s.incr("gp_fits", 7)
        s.add_time("surrogate", 0.002)
        text = s.format()
        assert "gp_fits" in text and "surrogate" in text


class TestCollectorStack:
    def test_collect_isolates_a_run(self):
        with perf.collect() as stats:
            perf.incr("gp_fits")
        assert stats.snapshot()["counters"]["gp_fits"] == 1
        perf.incr("gp_fits")  # outside the block: not recorded into stats
        assert stats.snapshot()["counters"]["gp_fits"] == 1

    def test_events_also_reach_outer_collectors(self):
        with perf.collect() as outer:
            with perf.collect() as inner:
                perf.incr("gp_fits")
            assert outer.snapshot()["counters"]["gp_fits"] == 1
            assert inner.snapshot()["counters"]["gp_fits"] == 1

    def test_global_always_receives(self):
        before = perf.GLOBAL.counters.get("gp_fits", 0)
        with perf.collect():
            perf.incr("gp_fits")
        assert perf.GLOBAL.counters["gp_fits"] == before + 1

    def test_current_returns_innermost(self):
        assert perf.current() is perf.GLOBAL
        with perf.collect() as stats:
            assert perf.current() is stats


class TestTimers:
    def test_timer_records_duration(self):
        with perf.collect() as stats:
            with perf.timer("search"):
                pass
        t = stats.snapshot()["timers"]["search"]
        assert t["count"] == 1 and t["total_s"] >= 0.0

    def test_nested_timers_use_dotted_paths(self):
        with perf.collect() as stats:
            with perf.timer("iteration"):
                with perf.timer("surrogate"):
                    pass
                with perf.timer("search"):
                    pass
        timers = stats.snapshot()["timers"]
        assert "iteration" in timers
        assert "iteration.surrogate" in timers
        assert "iteration.search" in timers

    def test_timer_path_unwinds_on_exception(self):
        try:
            with perf.timer("outer"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with perf.collect() as stats:
            with perf.timer("other"):
                pass
        assert "other" in stats.snapshot()["timers"]  # not "outer.other"


class TestGauges:
    def test_gauge_tracks_last_max_mean(self):
        s = PerfStats()
        for v in (2.0, 6.0, 4.0):
            s.gauge("queue_depth", v)
        g = s.snapshot()["gauges"]["queue_depth"]
        assert g["last"] == 4.0
        assert g["max"] == 6.0
        assert g["mean"] == 4.0

    def test_module_gauge_reaches_collectors(self):
        with perf.collect() as stats:
            perf.gauge("utilization", 0.5)
        assert stats.snapshot()["gauges"]["utilization"]["last"] == 0.5

    def test_format_mentions_gauges(self):
        s = PerfStats()
        s.gauge("queue_depth", 3.0)
        assert "queue_depth" in s.format()

    def test_no_gauges_key_when_empty(self):
        assert "gauges" not in PerfStats().snapshot()


class TestThreadSafety:
    def test_concurrent_counters_exact(self):
        """Unguarded dict read-modify-write would drop increments."""
        s = PerfStats()
        n_threads, n_incr = 8, 2000

        def work():
            for _ in range(n_incr):
                s.incr("hits")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert s.counters["hits"] == n_threads * n_incr

    def test_concurrent_module_events_reach_collector(self):
        with perf.collect() as stats:
            threads = [
                threading.Thread(target=lambda: [perf.incr("evals") for _ in range(500)])
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert stats.snapshot()["counters"]["evals"] == 3000

    def test_timer_paths_are_thread_local(self):
        """A worker's open timer must not prefix another thread's names."""
        inner_started = threading.Event()
        release = threading.Event()

        def slow_timer():
            with perf.timer("worker"):
                inner_started.set()
                release.wait(timeout=5.0)

        with perf.collect() as stats:
            t = threading.Thread(target=slow_timer)
            t.start()
            inner_started.wait(timeout=5.0)
            with perf.timer("mainloop"):
                pass
            release.set()
            t.join()
        timers = stats.snapshot()["timers"]
        assert "mainloop" in timers  # not "worker.mainloop"
        assert "worker" in timers

    def test_collectors_come_and_go_while_threads_record(self):
        """Pushing and popping collectors (from two threads) never loses
        or repeats an event in a collector that stays active, nor raises."""
        n_threads, n_incr = 4, 3000
        name = "stack_churn_events"
        errors: list[BaseException] = []
        done = threading.Event()

        def record():
            try:
                for _ in range(n_incr):
                    perf.incr(name)
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        def churn():
            try:
                while not done.is_set():
                    with perf.collect():
                        with perf.collect():
                            pass
            except BaseException as exc:  # pragma: no cover - the failure
                errors.append(exc)

        before = perf.GLOBAL.counters.get(name, 0)
        with perf.collect() as held:
            churners = [threading.Thread(target=churn) for _ in range(2)]
            workers = [threading.Thread(target=record) for _ in range(n_threads)]
            for t in churners + workers:
                t.start()
            for t in workers:
                t.join()
            done.set()
            for t in churners:
                t.join()
        assert errors == []
        assert held.counters[name] == n_threads * n_incr
        assert perf.GLOBAL.counters[name] - before == n_threads * n_incr
        assert perf.current() is perf.GLOBAL
