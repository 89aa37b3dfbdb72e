"""Lightweight performance observability for the BO hot path.

The tuning loop is instrumented with *counters* (how many GP fits,
incremental updates, Cholesky retries, acquisition evaluations, kernel
cache hits), *nested timers* (where the per-iteration wall time goes:
surrogate fit vs acquisition search) and *gauges* (sampled quantities
like fabric queue depth or worker utilization).  The overhead is a few
hundred nanoseconds per event, so the instrumentation stays on
permanently.

Design: a stack of :class:`PerfStats` collectors.  A module-level default
collector always exists (process-wide totals); :meth:`Tuner.tune` pushes
a fresh collector via :func:`collect` so every :class:`TuningResult`
carries the stats of exactly its own run.  Events are recorded into
*all* active collectors, which makes nested tuning runs (ensembles,
GPTuneBand brackets) compose naturally.

Thread-safety: multi-start MLE (:mod:`repro.core.fit`, ``n_jobs``) and
the service router's fan-out record events from pool threads
concurrently with the calling thread.  The
collector stack is process-global (worker events reach the collectors
the main thread pushed), every mutation is lock-guarded, and the
*timer nesting path* is thread-local so concurrent workers cannot
interleave each other's dotted timer names.

Timer names nest by call structure: a ``timer("fit")`` entered while
``timer("surrogate")`` is active records under ``"surrogate.fit"``.

Example
-------
>>> from repro.core import perf
>>> with perf.collect() as stats:
...     with perf.timer("surrogate"):
...         perf.incr("gp_fits")
>>> stats.snapshot()["counters"]["gp_fits"]
1
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "PerfStats",
    "collect",
    "current",
    "gauge",
    "incr",
    "merge",
    "snapshot",
    "timer",
    "reset_global",
]


class PerfStats:
    """A bag of counters, accumulated timers, and sampled gauges."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, list[float]] = {}  # name -> [total_s, count]
        self.gauges: dict[str, list[float]] = {}  # name -> [last, max, sum, count]
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    def incr(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def add_time(self, name: str, seconds: float) -> None:
        with self._lock:
            slot = self.timers.get(name)
            if slot is None:
                self.timers[name] = [float(seconds), 1]
            else:
                slot[0] += float(seconds)
                slot[1] += 1

    def gauge(self, name: str, value: float) -> None:
        """Record one sample of a time-varying quantity."""
        v = float(value)
        with self._lock:
            slot = self.gauges.get(name)
            if slot is None:
                self.gauges[name] = [v, v, v, 1]
            else:
                slot[0] = v
                slot[1] = max(slot[1], v)
                slot[2] += v
                slot[3] += 1

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.timers.clear()
            self.gauges.clear()

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict from elsewhere into this collector.

        The cross-process aggregation path: worker *processes* cannot
        record into the parent's collector stack (each fork gets copies),
        so they ship ``snapshot()`` dicts home and the parent merges them
        — counters and timer totals add, gauges accumulate their sample
        statistics (``last`` takes the incoming value, ``max`` the
        maximum).  Merging an empty or partial snapshot is a no-op for
        the missing sections.
        """
        with self._lock:
            for name, n in snapshot.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + int(n)
            for name, t in snapshot.get("timers", {}).items():
                slot = self.timers.get(name)
                total, count = float(t["total_s"]), int(t["count"])
                if slot is None:
                    self.timers[name] = [total, count]
                else:
                    slot[0] += total
                    slot[1] += count
            for name, g in snapshot.get("gauges", {}).items():
                count = int(g.get("count", 1))
                total = float(g.get("mean", 0.0)) * count
                slot = self.gauges.get(name)
                if slot is None:
                    self.gauges[name] = [
                        float(g["last"]),
                        float(g["max"]),
                        total,
                        count,
                    ]
                else:
                    slot[0] = float(g["last"])
                    slot[1] = max(slot[1], float(g["max"]))
                    slot[2] += total
                    slot[3] += count

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view (JSON-serializable, safe to keep around)."""
        with self._lock:
            out: dict[str, Any] = {
                "counters": dict(self.counters),
                "timers": {
                    name: {
                        "total_s": total,
                        "count": count,
                        "mean_ms": 1e3 * total / count if count else 0.0,
                    }
                    for name, (total, count) in self.timers.items()
                },
            }
            if self.gauges:
                out["gauges"] = {
                    name: {
                        "last": last,
                        "max": peak,
                        "mean": total / count if count else 0.0,
                        # sample count makes merge() lossless round-trip
                        "count": count,
                    }
                    for name, (last, peak, total, count) in self.gauges.items()
                }
            return out

    def format(self, indent: str = "") -> str:
        """Compact human-readable rendering (one line per entry)."""
        snap = self.snapshot()
        lines = []
        for name in sorted(snap["timers"]):
            t = snap["timers"][name]
            lines.append(
                f"{indent}{name:<28} {t['total_s'] * 1e3:9.1f} ms"
                f"  ({t['count']} calls, {t['mean_ms']:.3f} ms avg)"
            )
        for name in sorted(snap["counters"]):
            lines.append(f"{indent}{name:<28} {snap['counters'][name]:9d}")
        for name in sorted(snap.get("gauges", {})):
            g = snap["gauges"][name]
            lines.append(
                f"{indent}{name:<28} {g['last']:9.3f}"
                f"  (max {g['max']:.3f}, mean {g['mean']:.3f})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<PerfStats {len(self.counters)} counters, "
            f"{len(self.timers)} timers, {len(self.gauges)} gauges>"
        )


#: process-wide collector; always active at the bottom of the stack
GLOBAL = PerfStats()

_stack: list[PerfStats] = [GLOBAL]
#: guards push/pop/iteration of the collector stack (not the collectors
#: themselves — each PerfStats carries its own lock)
_stack_lock = threading.Lock()
#: per-thread timer nesting, so concurrent workers keep separate paths
_local = threading.local()


def _timer_path() -> list[str]:
    path = getattr(_local, "timer_path", None)
    if path is None:
        path = _local.timer_path = []
    return path


def _active() -> tuple[PerfStats, ...]:
    with _stack_lock:
        return tuple(_stack)


def current() -> PerfStats:
    """The innermost active collector."""
    with _stack_lock:
        return _stack[-1]


def reset_global() -> None:
    """Clear the process-wide collector (benchmarks call this between runs)."""
    GLOBAL.reset()


@contextmanager
def collect(stats: PerfStats | None = None) -> Iterator[PerfStats]:
    """Push a collector; events inside the block are recorded into it.

    Outer collectors (including the global one) keep receiving events
    too, so nesting is additive rather than exclusive.  The stack is
    process-global: events recorded by worker threads while the block is
    active land in ``stats`` as well.
    """
    stats = stats if stats is not None else PerfStats()
    with _stack_lock:
        _stack.append(stats)
    try:
        yield stats
    finally:
        with _stack_lock:
            _stack.remove(stats)


def incr(name: str, n: int = 1) -> None:
    """Increment a counter in every active collector."""
    for s in _active():
        s.incr(name, n)


def gauge(name: str, value: float) -> None:
    """Record a gauge sample in every active collector."""
    for s in _active():
        s.gauge(name, value)


def snapshot() -> dict[str, Any]:
    """Snapshot of the innermost active collector (see PerfStats.snapshot)."""
    return current().snapshot()


def merge(snap: dict[str, Any]) -> None:
    """Fold a snapshot dict into every active collector.

    This is how subprocess work reports home: a worker process runs
    under its own ``collect()``, ships ``stats.snapshot()`` back with
    its result, and the parent calls ``perf.merge(snap)`` so the
    counters land in the collectors the parent pushed (and therefore in
    ``TuningResult.perf``).  Without this every counter incremented in a
    forked worker is silently lost.
    """
    for s in _active():
        s.merge(snap)


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Time a block; records under the dotted path of enclosing timers.

    Nesting is tracked per thread: timers opened by concurrent workers
    never appear in each other's dotted paths.
    """
    path = _timer_path()
    path.append(name)
    key = ".".join(path)
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        if path and path[-1] == name:
            path.pop()
        for s in _active():
            s.add_time(key, dt)
